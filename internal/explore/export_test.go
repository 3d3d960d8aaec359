package explore

import "waitfree/internal/program"

// PlanOrbits runs planOrbits for a k-valued run of im and returns the
// number of orbits in the plan. It is exported to the external test
// package, whose benchmark builds an elimination output with
// internal/core, which imports this package.
func PlanOrbits(im *program.Implementation, k int, opts Options) (orbits int, reduced bool, err error) {
	roots, err := Trees(im.Procs, k)
	if err != nil {
		return 0, false, err
	}
	plan, reduced, err := planOrbits(im, k, roots, opts)
	return len(plan), reduced, err
}
