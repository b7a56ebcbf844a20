package exper

// The multicore determinism suite: under real parallelism (GOMAXPROCS >= 2)
// the work-stealing parallel search must reproduce the sequential ICB
// drain's deterministic outputs on every seeded benchmark bug variant, at
// every worker count, with and without the partial-order reduction. Run
// with -race in CI's multicore job: these drains are also the workload the
// race detector needs to check the deque, probe-buffer and holdback
// machinery under genuine interleaving.

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"icb/internal/core"
	"icb/internal/progs"
)

// requireMulticore skips tests that only mean something when workers can
// actually run in parallel. On GOMAXPROCS=1 every goroutine time-shares
// one proc, so steals and softened-barrier overlap barely occur and the
// "determinism under parallelism" claim would not be exercised.
func requireMulticore(t *testing.T) {
	t.Helper()
	if n := runtime.GOMAXPROCS(0); n < 2 {
		t.Skipf("GOMAXPROCS=%d: the multicore determinism suite needs >= 2 procs to exercise real parallelism (set GOMAXPROCS=2 to run it on a 1-CPU host)", n)
	}
}

// heavyVariant marks the drains whose sequential reference alone needs
// tens of thousands of executions; -short skips them so developer runs
// stay quick while CI's multicore job covers all 14 variants.
func heavyVariant(b *progs.Benchmark, bug *progs.BugInfo) bool {
	return b.Name == "Dryad Channels" && bug.Bound >= 1
}

// bugIdentity projects a bug onto its scheduler-independent identity:
// kind, message and minimal preemption count. counts additionally pins the
// sighting count, deterministic for uncached full drains only.
func bugIdentity(res core.Result, counts bool) []string {
	var out []string
	for i := range res.Bugs {
		b := &res.Bugs[i]
		f := fmt.Sprintf("%s|%s|p=%d", b.Kind, b.Message, b.Preemptions)
		if counts {
			f += fmt.Sprintf("|n=%d", b.Count)
		}
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// sightingBounds returns the first-sighting bound of each bug in report
// order. An execution seeded at bound c runs with exactly c preemptions
// (its deferred branch is the c-th), so Bug.Preemptions is the bound the
// defect was first sighted at; the holdback protocol must keep this
// sequence non-decreasing — bound for bound, the order sequential ICB
// reports first sightings in.
func sightingBounds(res core.Result) []int {
	var out []int
	for i := range res.Bugs {
		out = append(out, res.Bugs[i].Preemptions)
	}
	return out
}

// TestMulticoreDeterminismSuite drains every seeded benchmark bug variant
// to its documented bound with workers 2, 4 and 8 and checks the stealing
// search against the sequential reference: identical execution, state and
// class counts, identical bound guarantee, an identical bug set with
// identical minimal preemption counts and sighting counts, and first
// sightings released in bound order.
func TestMulticoreDeterminismSuite(t *testing.T) {
	requireMulticore(t)
	t.Parallel() // see ablate_test.go
	cfg := Config{}
	for _, b := range Benchmarks() {
		for i := range b.Bugs {
			bug := b.Bugs[i]
			t.Run(b.Name+"/"+bug.ID, func(t *testing.T) {
				if testing.Short() && heavyVariant(b, &bug) {
					t.Skipf("-short: sequential reference drain of %s/%s is too large; CI's multicore job runs it", b.Name, bug.ID)
				}
				opt := core.Options{MaxPreemptions: bug.Bound, CheckRaces: true}
				ref := explore(bug.Program, core.ICB{}, opt, cfg)
				if len(ref.Bugs) == 0 {
					t.Fatalf("sequential reference finds nothing at bound %d", bug.Bound)
				}
				refBugs := bugIdentity(ref, true)
				refOrder := sightingBounds(ref)
				if !sort.IntsAreSorted(refOrder) {
					t.Fatalf("sequential sighting bounds not monotone: %v", refOrder)
				}
				for _, w := range []int{2, 4, 8} {
					res := explore(bug.Program, core.ParallelICB{Workers: w}, opt, cfg)
					if res.Executions != ref.Executions {
						t.Errorf("workers=%d: executions = %d, sequential = %d", w, res.Executions, ref.Executions)
					}
					if res.States != ref.States || res.ExecutionClasses != ref.ExecutionClasses {
						t.Errorf("workers=%d: coverage states=%d classes=%d, sequential %d and %d",
							w, res.States, res.ExecutionClasses, ref.States, ref.ExecutionClasses)
					}
					if res.BoundCompleted != ref.BoundCompleted || res.Exhausted != ref.Exhausted {
						t.Errorf("workers=%d: boundCompleted=%d exhausted=%v, sequential %d and %v",
							w, res.BoundCompleted, res.Exhausted, ref.BoundCompleted, ref.Exhausted)
					}
					if got := bugIdentity(res, true); !reflect.DeepEqual(got, refBugs) {
						t.Errorf("workers=%d: bug set %q, sequential %q", w, got, refBugs)
					}
					// First-sighting order at bound granularity: the holdback
					// protocol releases sightings only when their bound
					// retires, so the report must be bound-ordered like the
					// sequential one (order within one bound is the merge's
					// deterministic (kind, message) order, not sequential's
					// execution order — both are fixed, so flakes here mean a
					// held bug leaked early).
					if got := sightingBounds(res); !sort.IntsAreSorted(got) {
						t.Errorf("workers=%d: sighting bounds out of order: %v (a held sighting was released before its bound retired)", w, got)
					}
				}
			})
		}
	}
}

// TestMulticoreDeterminismSuiteBPOR repeats the suite with the bounded
// partial-order reduction on. Under the reduction, execution counts and
// state counts are nondeterministic across runs (registration order in the
// shared BPOR table depends on worker interleaving), so this pins the
// sound outputs only: the bug set with minimal preemption counts, the
// bound guarantee, and bound-ordered sightings.
func TestMulticoreDeterminismSuiteBPOR(t *testing.T) {
	requireMulticore(t)
	t.Parallel() // see ablate_test.go
	cfg := Config{}
	for _, b := range Benchmarks() {
		for i := range b.Bugs {
			bug := b.Bugs[i]
			t.Run(b.Name+"/"+bug.ID, func(t *testing.T) {
				if testing.Short() && heavyVariant(b, &bug) {
					t.Skipf("-short: sequential reference drain of %s/%s is too large; CI's multicore job runs it", b.Name, bug.ID)
				}
				opt := core.Options{MaxPreemptions: bug.Bound, CheckRaces: true, BPOR: true}
				ref := explore(bug.Program, core.ICB{}, opt, cfg)
				if len(ref.Bugs) == 0 {
					t.Fatalf("sequential BPOR reference finds nothing at bound %d", bug.Bound)
				}
				refBugs := bugIdentity(ref, false)
				for _, w := range []int{2, 4, 8} {
					res := explore(bug.Program, core.ParallelICB{Workers: w}, opt, cfg)
					if got := bugIdentity(res, false); !reflect.DeepEqual(got, refBugs) {
						t.Errorf("workers=%d: bug set %q, sequential %q", w, got, refBugs)
					}
					if res.BoundCompleted != ref.BoundCompleted || res.Exhausted != ref.Exhausted {
						t.Errorf("workers=%d: boundCompleted=%d exhausted=%v, sequential %d and %v",
							w, res.BoundCompleted, res.Exhausted, ref.BoundCompleted, ref.Exhausted)
					}
					if got := sightingBounds(res); !sort.IntsAreSorted(got) {
						t.Errorf("workers=%d: sighting bounds out of order: %v", w, got)
					}
				}
			})
		}
	}
}

// TestMulticoreMinimalFirstUnderStop pins the StopOnFirstBug contract
// under parallelism for every variant with a positive documented bound:
// the stealing search must report its first bug at exactly the documented
// minimal preemption count, with all lower bounds fully drained first —
// even when workers run ahead of the barrier into the bug's bound.
func TestMulticoreMinimalFirstUnderStop(t *testing.T) {
	requireMulticore(t)
	t.Parallel() // see ablate_test.go
	cfg := Config{}
	for _, b := range Benchmarks() {
		for i := range b.Bugs {
			bug := b.Bugs[i]
			if bug.Bound == 0 {
				continue // nothing below the bound to hold the sighting for
			}
			t.Run(b.Name+"/"+bug.ID, func(t *testing.T) {
				if testing.Short() && heavyVariant(b, &bug) {
					t.Skipf("-short: drain of %s/%s is too large; CI's multicore job runs it", b.Name, bug.ID)
				}
				for _, w := range []int{2, 4, 8} {
					res := explore(bug.Program, core.ParallelICB{Workers: w}, core.Options{
						MaxPreemptions: bug.Bound,
						StopOnFirstBug: true,
					}, cfg)
					fb := res.FirstBug()
					if fb == nil {
						t.Fatalf("workers=%d: bound %d finds nothing", w, bug.Bound)
					}
					if fb.Preemptions != bug.Bound {
						t.Errorf("workers=%d: first bug at %d preemptions, documented minimum is %d",
							w, fb.Preemptions, bug.Bound)
					}
					if res.BoundCompleted != bug.Bound-1 {
						t.Errorf("workers=%d: boundCompleted = %d, want %d (every lower bound drained before the sighting is released)",
							w, res.BoundCompleted, bug.Bound-1)
					}
				}
			})
		}
	}
}
