package exper

import (
	"testing"

	"icb/internal/core"
	"icb/internal/progs/txnmgr"
	"icb/internal/zing"
)

// firstSightings pins, for every seeded benchmark bug in Table-2 order,
// the 1-based index of the execution that first exposes it: sequential
// ICB bounded to the bug's documented minimal preemption count, plain
// and with the partial-order reduction. The searches are deterministic,
// so the indices are exact; they are the same at any larger bound, since
// ICB exhausts the smaller bounds first.
var firstSightings = map[string]struct{ plain, bpor int }{
	"Bluetooth/stop-window":                   {21, 19},
	"File System Model/lockless-alloc":        {1, 1},
	"Work Stealing Queue/pop-unreserved-read": {10, 10},
	"Work Stealing Queue/steal-unlocked":      {46, 44},
	"Work Stealing Queue/steal-late-commit":   {65, 65},
	"APE/shutdown-miscount":                   {1, 1},
	"APE/lost-wakeup":                         {1, 1},
	"APE/completion-window":                   {27, 27},
	"APE/activity-pointer":                    {292, 272},
	"Dryad Channels/close-no-wait":            {1, 1},
	"Dryad Channels/alert-window":             {1347, 1193},
	"Dryad Channels/stats-lost-update":        {1337, 1184},
	"Dryad Channels/handoff-lost-decrement":   {1400, 1238},
	"Dryad Channels/lock-inversion":           {1311, 1158},
}

// TestTheorem1PinsBenchmarkBounds pins Theorem 1's two-sided guarantee on
// every seeded benchmark bug: ICB bounded to the bug's documented minimal
// preemption count c exposes it (and sights it at exactly c, the
// minimal-first property, at the pinned execution), while the
// bound-(c-1) search completes without finding anything — certifying
// that c really is the minimum, not just a bound at which the bug happens
// to appear.
func TestTheorem1PinsBenchmarkBounds(t *testing.T) {
	cfg := Config{}
	variants := 0
	for _, b := range Benchmarks() {
		for i := range b.Bugs {
			bug := b.Bugs[i]
			variants++
			t.Run(b.Name+"/"+bug.ID, func(t *testing.T) {
				res := explore(bug.Program, core.ICB{}, core.Options{
					MaxPreemptions: bug.Bound,
					StopOnFirstBug: true,
				}, cfg)
				fb := res.FirstBug()
				if fb == nil {
					t.Fatalf("bound %d finds nothing; documented minimal bound is %d", bug.Bound, bug.Bound)
				}
				if fb.Preemptions != bug.Bound {
					t.Fatalf("first bug sighted at %d preemptions, documented minimum is %d", fb.Preemptions, bug.Bound)
				}
				if fb.Kind.String() != bug.Kind {
					t.Errorf("bug kind %q, documented %q", fb.Kind, bug.Kind)
				}
				if want := firstSightings[b.Name+"/"+bug.ID]; fb.Execution != want.plain {
					t.Errorf("first bug sighted at execution %d, pinned %d", fb.Execution, want.plain)
				}

				if bug.Bound == 0 {
					return // no smaller bound to certify against
				}
				below := explore(bug.Program, core.ICB{}, core.Options{
					MaxPreemptions: bug.Bound - 1,
				}, cfg)
				if len(below.Bugs) != 0 {
					t.Fatalf("bound %d exposed %v; the documented minimum %d is not minimal",
						bug.Bound-1, below.Bugs[0].Kind, bug.Bound)
				}
				if below.BoundCompleted != bug.Bound-1 {
					t.Fatalf("bound-%d search completed only bound %d; the no-bug result is not a certificate",
						bug.Bound-1, below.BoundCompleted)
				}
			})
		}
	}
	if variants != len(firstSightings) {
		t.Errorf("%d seeded bug variants, %d pinned first sightings", variants, len(firstSightings))
	}
}

// TestTheorem1PinsTxnmgrBounds is the same pin for the transaction
// manager's ZML variants, through the explicit-state checker.
func TestTheorem1PinsTxnmgrBounds(t *testing.T) {
	for _, bug := range txnmgr.Bugs() {
		t.Run(bug.ID, func(t *testing.T) {
			p, err := txnmgr.Compile(bug.Variant)
			if err != nil {
				t.Fatal(err)
			}
			res := zing.CheckICB(p, zing.Options{MaxPreemptions: bug.Bound, StopOnFirstBug: true})
			fb := res.FirstBug()
			if fb == nil {
				t.Fatalf("bound %d finds nothing; documented minimal bound is %d", bug.Bound, bug.Bound)
			}
			if fb.Preemptions != bug.Bound {
				t.Fatalf("first bug sighted at %d preemptions, documented minimum is %d", fb.Preemptions, bug.Bound)
			}

			below := zing.CheckICB(p, zing.Options{MaxPreemptions: bug.Bound - 1})
			if fb := below.FirstBug(); fb != nil {
				t.Fatalf("bound %d exposed a bug at %d preemptions; the documented minimum %d is not minimal",
					bug.Bound-1, fb.Preemptions, bug.Bound)
			}
		})
	}
}
