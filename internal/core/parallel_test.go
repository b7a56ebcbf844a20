package core_test

// Tests of the work-stealing search (ParallelICB) at two workers or more:
// any worker count must preserve the deterministic outputs — bug set,
// BoundCompleted, per-bound coverage, distinct-state and execution-class
// counts — of the one-worker search (ICB), whose order TestExecutionOrderPins
// pins. Run with -race: these tests are also the data -race needs to check
// the sharded set, striped table and merge step.

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"icb/internal/core"
	"icb/internal/progs/bluetooth"
	"icb/internal/progs/wsq"
	"icb/internal/sched"
)

// bugFacts projects a Result's bugs onto their deterministic facts: kind,
// message, preemption count of the exposing execution, and sighting count
// (deterministic for full drains without caching).
func bugFacts(res core.Result, counts bool) []string {
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

func wsqBuggy() sched.Program {
	return wsq.Program(wsq.StealUnlocked, wsq.Params{Items: 2, Size: 2})
}

func bluetoothBuggy() sched.Program {
	return bluetooth.Benchmark().Bugs[0].Program
}

// TestParallelICBMatchesSequential: without caching the explored execution
// set is exactly "every execution with <= bound preemptions", so every
// count is order-independent and must be identical across worker counts.
func TestParallelICBMatchesSequential(t *testing.T) {
	progs := map[string]func() sched.Program{
		"wsq":       wsqBuggy,
		"bluetooth": bluetoothBuggy,
	}
	for name, mk := range progs {
		t.Run(name, func(t *testing.T) {
			opt := core.Options{MaxPreemptions: 2, CheckRaces: true}
			ref := core.Explore(mk(), core.ICB{}, opt)
			if len(ref.Bugs) == 0 {
				t.Fatalf("seeded bug not found sequentially")
			}
			for _, w := range []int{2, 4, 8} {
				res := core.Explore(mk(), core.ParallelICB{Workers: w}, opt)
				if res.Executions != ref.Executions {
					t.Errorf("workers=%d: executions = %d, sequential = %d", w, res.Executions, ref.Executions)
				}
				if res.States != ref.States {
					t.Errorf("workers=%d: states = %d, sequential = %d", w, res.States, ref.States)
				}
				if res.ExecutionClasses != ref.ExecutionClasses {
					t.Errorf("workers=%d: classes = %d, sequential = %d", w, res.ExecutionClasses, ref.ExecutionClasses)
				}
				if res.BoundCompleted != ref.BoundCompleted {
					t.Errorf("workers=%d: boundCompleted = %d, sequential = %d", w, res.BoundCompleted, ref.BoundCompleted)
				}
				if res.Exhausted != ref.Exhausted {
					t.Errorf("workers=%d: exhausted = %v, sequential = %v", w, res.Exhausted, ref.Exhausted)
				}
				if got, want := bugFacts(res, true), bugFacts(ref, true); !reflect.DeepEqual(got, want) {
					t.Errorf("workers=%d: bug set %v, sequential %v", w, got, want)
				}
				// Per-bound coverage (the Theorem 1 guarantee surface) must
				// agree bound for bound in its deterministic columns: the
				// bounds completed and the executions attributed to each.
				// The state count sampled at a bound's completion is not
				// deterministic under the softened barrier — executions of
				// the next bound run early and bleed into the shared set.
				if len(res.BoundCurve) != len(ref.BoundCurve) {
					t.Errorf("workers=%d: bound curve %+v, sequential %+v", w, res.BoundCurve, ref.BoundCurve)
				} else {
					for i := range ref.BoundCurve {
						if res.BoundCurve[i].Bound != ref.BoundCurve[i].Bound ||
							res.BoundCurve[i].Executions != ref.BoundCurve[i].Executions {
							t.Errorf("workers=%d: bound curve %+v, sequential %+v", w, res.BoundCurve, ref.BoundCurve)
							break
						}
					}
				}
			}
		})
	}
}

// TestParallelICBMatchesSequentialCached: with the shared work-item table,
// which equivalent execution claims a work item first is racy, so execution
// counts may differ — but the set of expanded (state, decision) pairs and
// therefore the visited-state count, the bug set, and the bound guarantee
// are still deterministic.
func TestParallelICBMatchesSequentialCached(t *testing.T) {
	opt := core.Options{MaxPreemptions: 2, CheckRaces: true, StateCache: true}
	ref := core.Explore(wsqBuggy(), core.ICB{}, opt)
	for _, w := range []int{2, 4} {
		res := core.Explore(wsqBuggy(), core.ParallelICB{Workers: w}, opt)
		if res.States != ref.States {
			t.Errorf("workers=%d: states = %d, sequential = %d", w, res.States, ref.States)
		}
		if res.BoundCompleted != ref.BoundCompleted {
			t.Errorf("workers=%d: boundCompleted = %d, sequential = %d", w, res.BoundCompleted, ref.BoundCompleted)
		}
		if got, want := bugFacts(res, false), bugFacts(ref, false); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: bug set %v, sequential %v", w, got, want)
		}
	}
}

// TestParallelICBMinimalPreemptionBug: the bound barrier preserves the
// paper's first-bug guarantee — a program whose only bug needs exactly two
// preemptions must report it with Preemptions == 2 under StopOnFirstBug,
// no matter how many workers race within each bound.
func TestParallelICBMinimalPreemptionBug(t *testing.T) {
	for _, w := range []int{2, 4, 8} {
		res := core.Explore(needsTwo, core.ParallelICB{Workers: w},
			core.Options{MaxPreemptions: -1, StopOnFirstBug: true})
		bug := res.FirstBug()
		if bug == nil {
			t.Fatalf("workers=%d: bug not found", w)
		}
		if bug.Preemptions != 2 {
			t.Errorf("workers=%d: first bug at %d preemptions, want 2", w, bug.Preemptions)
		}
		if res.BoundCompleted != 1 {
			t.Errorf("workers=%d: boundCompleted = %d, want 1 (bounds 0 and 1 fully drained first)", w, res.BoundCompleted)
		}
	}
}

// TestParallelICBExecutionBudget: MaxExecutions is a search-global budget
// enforced through the shared execution counter; each in-flight worker may
// finish its current execution, so the total may overshoot by at most
// workers-1.
func TestParallelICBExecutionBudget(t *testing.T) {
	const budget = 50
	workers := 4
	res := core.Explore(wsqBuggy(), core.ParallelICB{Workers: workers},
		core.Options{MaxPreemptions: -1, MaxExecutions: budget})
	if res.Executions < budget || res.Executions >= budget+workers {
		t.Errorf("executions = %d, want in [%d, %d)", res.Executions, budget, budget+workers)
	}
	if res.Exhausted {
		t.Errorf("budget-stopped search marked exhausted")
	}
}

// TestParallelICBReplaysBug: a bug schedule found by a parallel search must
// replay deterministically, exactly like a sequential one.
func TestParallelICBReplaysBug(t *testing.T) {
	res := core.Explore(wsqBuggy(), core.ParallelICB{Workers: 4},
		core.Options{MaxPreemptions: 2, CheckRaces: true})
	bug := res.FirstBug()
	if bug == nil {
		t.Fatal("bug not found")
	}
	out := sched.Run(wsqBuggy(),
		&sched.ReplayController{Prefix: bug.Schedule, Tail: sched.FirstEnabled{}},
		sched.Config{})
	if !out.Status.Buggy() {
		t.Errorf("replay outcome %v, want buggy", out)
	}
	if out.Preemptions != bug.Preemptions {
		t.Errorf("replay preemptions = %d, recorded %d", out.Preemptions, bug.Preemptions)
	}
}
