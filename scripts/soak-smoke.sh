#!/usr/bin/env bash
# Soak smoke: prove the durable-runs loop end to end on a real process.
#
# An exploration with -checkpoint-every autosaves its resumable state on a
# timer (checksummed, atomically renamed). This script starts such a run,
# SIGKILLs it mid-flight — no signal handler, no cleanup, the worst case —
# resumes from whatever the autosave left behind, and asserts the resumed
# run's report is identical to an uninterrupted run's (modulo wall-clock
# and engine-throughput fields, which legitimately differ).
#
# Requires: go, jq.
set -euo pipefail

cd "$(dirname "$0")/.."
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

go build -o "$work/explore" ./cmd/explore

# A workload long enough to straddle several 1s autosave intervals:
# sticky-cell consensus for 5 processes with exhaustive crash-stop faults,
# every proposal tree explored (10-20s on two cores).
args=(-protocol sticky -procs 5 -faults -fault-mode crash-stop -symmetry off -json)

echo "soak-smoke: uninterrupted reference run"
"$work/explore" "${args[@]}" > "$work/reference.json"

echo "soak-smoke: same run with -checkpoint-every 1s, SIGKILL after the first autosave"
"$work/explore" "${args[@]}" -checkpoint "$work/cp" -checkpoint-every 1s > "$work/killed.json" &
pid=$!
# Wait for the first autosaved checkpoint to appear (rename is atomic, so a
# non-empty file is a complete one), then kill without ceremony. The loop
# also notices if the run finishes before any autosave — that would mean
# the workload is too small to exercise the kill path.
for _ in $(seq 1 100); do
	kill -0 "$pid" 2>/dev/null || break
	[ -s "$work/cp" ] && break
	sleep 0.1
done
if ! kill -0 "$pid" 2>/dev/null; then
	echo "soak-smoke: run finished before the first autosave; enlarge the workload" >&2
	exit 1
fi
sleep 1 # let a second interval land mid-run for good measure
kill -KILL "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true

[ -s "$work/cp" ] || { echo "soak-smoke: no autosaved checkpoint survived the kill" >&2; exit 1; }

echo "soak-smoke: resuming from the autosaved checkpoint"
"$work/explore" "${args[@]}" -checkpoint "$work/cp" -checkpoint-every 1s > "$work/resumed.json"

strip='del(.elapsed_ns, .consensus.stats)'
if ! diff <(jq -S "$strip" "$work/reference.json") <(jq -S "$strip" "$work/resumed.json"); then
	echo "soak-smoke: FAIL — resumed report differs from the uninterrupted run" >&2
	exit 1
fi
echo "soak-smoke: OK — resumed report is identical to the uninterrupted run"
