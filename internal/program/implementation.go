package program

import (
	"errors"
	"fmt"

	"waitfree/internal/types"
)

// ObjectDecl declares one implementing object of an implementation: its
// type, initial state, and the port through which each process accesses it
// (Section 2.2: "the implementation should specify, for each object, the
// port number of each process that accesses it; at most one process may
// use a port").
type ObjectDecl struct {
	Name string
	Spec *types.Spec
	Init types.State
	// PortOf[p] is the 1-based port used by process p, or 0 if process p
	// never accesses the object.
	PortOf []int
}

// Port returns the port used by process p, or 0 if p has no port.
func (d *ObjectDecl) Port(p int) int {
	if p < 0 || p >= len(d.PortOf) {
		return 0
	}
	return d.PortOf[p]
}

// AllPorts assigns process p the port p+1 on an object with at least
// procs ports (the natural assignment for oblivious shared objects).
func AllPorts(procs int) []int {
	ports := make([]int, procs)
	for p := range ports {
		ports[p] = p + 1
	}
	return ports
}

// PairPorts assigns exactly two processes to ports 1 and 2: the reader
// process to port 1 and the writer process to port 2 (the convention of
// SRSW bits, one-use bits, and the Section 5.2 construction). All other
// processes get no port.
func PairPorts(procs, readerProc, writerProc int) []int {
	ports := make([]int, procs)
	ports[readerProc] = 1
	ports[writerProc] = 2
	return ports
}

// Implementation is a full Section 2.2 implementation of a target type: a
// set of initialized objects plus one deterministic program per process.
// Machines[p] handles every target invocation by process p (the target
// invocation is passed to Start, which corresponds to selecting the
// program P_jk for that invocation).
type Implementation struct {
	Name     string
	Target   *types.Spec
	Procs    int
	Objects  []ObjectDecl
	Machines []Machine
}

// Errors reported by Validate.
var (
	ErrNoMachines  = errors.New("program: implementation machine count does not match process count")
	ErrBadObjectID = errors.New("program: object declaration invalid")
)

// Validate checks structural well-formedness: machine count, object
// declarations, port ranges, and the at-most-one-process-per-port rule.
func (im *Implementation) Validate() error {
	if err := im.machineCountError(); err != nil {
		return err
	}
	for i := range im.Objects {
		obj := &im.Objects[i]
		if err := im.declError(i); err != nil {
			return err
		}
		for p, port := range obj.PortOf {
			if err := im.portError(i, p); err != nil {
				return err
			}
			if port == 0 {
				continue
			}
			// Pairwise, not a map: the Section 4.3 arrays declare tens of
			// thousands of objects.
			for prev := 0; prev < p; prev++ {
				if obj.PortOf[prev] == port {
					return fmt.Errorf("%w: object %d (%s) port %d shared by processes %d and %d",
						ErrBadObjectID, i, obj.Name, port, prev, p)
				}
			}
		}
	}
	return nil
}

// machineCountError checks that there is one machine per process.
func (im *Implementation) machineCountError() error {
	if len(im.Machines) != im.Procs {
		return fmt.Errorf("%w: %d machines for %d processes", ErrNoMachines, len(im.Machines), im.Procs)
	}
	return nil
}

// declError checks that object i has a spec and one port entry per
// process.
func (im *Implementation) declError(i int) error {
	obj := &im.Objects[i]
	if obj.Spec == nil {
		return fmt.Errorf("%w: object %d (%s) has no spec", ErrBadObjectID, i, obj.Name)
	}
	if len(obj.PortOf) != im.Procs {
		return fmt.Errorf("%w: object %d (%s) assigns ports for %d of %d processes",
			ErrBadObjectID, i, obj.Name, len(obj.PortOf), im.Procs)
	}
	return nil
}

// portError checks that process p's port on object i, if it has one, is
// in 1..Spec.Ports. It assumes declError(i) passed.
func (im *Implementation) portError(i, p int) error {
	obj := &im.Objects[i]
	if port := obj.PortOf[p]; port != 0 && (port < 1 || port > obj.Spec.Ports) {
		return fmt.Errorf("%w: object %d (%s) gives process %d port %d of %d",
			ErrBadObjectID, i, obj.Name, p, port, obj.Spec.Ports)
	}
	return nil
}

// InitialStates returns a fresh slice of the objects' initial states.
func (im *Implementation) InitialStates() []types.State {
	states := make([]types.State, len(im.Objects))
	for i := range im.Objects {
		states[i] = im.Objects[i].Init
	}
	return states
}

// CountObjects returns how many objects have the given spec name.
func (im *Implementation) CountObjects(specName string) int {
	n := 0
	for i := range im.Objects {
		if im.Objects[i].Spec.Name == specName {
			n++
		}
	}
	return n
}

// String summarizes the implementation for diagnostics.
func (im *Implementation) String() string {
	counts := make(map[string]int)
	for i := range im.Objects {
		counts[im.Objects[i].Spec.Name]++
	}
	return fmt.Sprintf("%s: %d procs, %d objects %v", im.Name, im.Procs, len(im.Objects), counts)
}
