package core_test

import (
	"testing"

	"icb/internal/baseline"
	"icb/internal/conc"
	"icb/internal/core"
	"icb/internal/progs"
	"icb/internal/progs/ape"
	"icb/internal/progs/bluetooth"
	"icb/internal/progs/dryad"
	"icb/internal/progs/fsmodel"
	"icb/internal/progs/wsq"
	"icb/internal/sched"
)

func cachedOpts() core.Options {
	return core.Options{MaxPreemptions: -1, CheckRaces: true, StateCache: true}
}

func TestCachedICBSameStatesFewerExecutions(t *testing.T) {
	// The work-item table prunes redundant interleavings without losing
	// states: state coverage must match the uncached exhaustive run.
	plain := core.Explore(smallRacefree, core.ICB{}, icbOpts())
	cached := core.Explore(smallRacefree, core.ICB{}, cachedOpts())
	if !plain.Exhausted || !cached.Exhausted {
		t.Fatalf("exhaustion: plain=%v cached=%v", plain.Exhausted, cached.Exhausted)
	}
	if cached.States != plain.States {
		t.Fatalf("states: cached=%d plain=%d", cached.States, plain.States)
	}
	if cached.ExecutionClasses != plain.ExecutionClasses {
		t.Fatalf("classes: cached=%d plain=%d", cached.ExecutionClasses, plain.ExecutionClasses)
	}
	if cached.Executions >= plain.Executions {
		t.Fatalf("caching did not prune: cached=%d plain=%d", cached.Executions, plain.Executions)
	}
}

// TestCachedICBPinsBenchmarkSweeps pins the cached bound-2 sweeps of the
// five correct benchmarks (the Table-1 configuration, races checked,
// capped at 2000 executions): the sequential search is deterministic, so
// its executions, classes, states and work-item table hits and misses are
// exact. Dryad hits the cap after completing bound 1.
func TestCachedICBPinsBenchmarkSweeps(t *testing.T) {
	type counts struct{ executions, classes, states, hits, misses int }
	for _, tc := range []struct {
		bench *progs.Benchmark
		bound int // completed bound
		want  counts
	}{
		{bluetooth.Benchmark(), 2, counts{1158, 362, 8579, 930, 13634}},
		{fsmodel.Benchmark(), 2, counts{717, 4, 1016, 908, 2476}},
		{wsq.Benchmark(), 2, counts{336, 199, 7792, 117, 9057}},
		{ape.Benchmark(), 2, counts{326, 64, 3116, 247, 3424}},
		{dryad.Benchmark(), 1, counts{2000, 220, 14882, 2453, 27334}},
	} {
		res := core.Explore(tc.bench.Correct, core.ICB{}, core.Options{
			MaxPreemptions: 2,
			MaxExecutions:  2000,
			CheckRaces:     true,
			StateCache:     true,
		})
		got := counts{res.Executions, res.ExecutionClasses, res.States, res.CacheHits, res.CacheMisses}
		if got != tc.want {
			t.Errorf("%s: executions/classes/states/hits/misses = %d/%d/%d/%d/%d, want %d/%d/%d/%d/%d",
				tc.bench.Name, got.executions, got.classes, got.states, got.hits, got.misses,
				tc.want.executions, tc.want.classes, tc.want.states, tc.want.hits, tc.want.misses)
		}
		if res.BoundCompleted != tc.bound || len(res.Bugs) != 0 {
			t.Errorf("%s: completed bound %d with %d bugs, want bound %d and none",
				tc.bench.Name, res.BoundCompleted, len(res.Bugs), tc.bound)
		}
	}
}

func TestCachedICBStillFindsMinimalBugs(t *testing.T) {
	opt := cachedOpts()
	opt.StopOnFirstBug = true
	res := core.Explore(needsOne, core.ICB{}, opt)
	if b := res.FirstBug(); b == nil || b.Preemptions != 1 {
		t.Fatalf("needsOne under cache: %v", res.Bugs)
	}
	res = core.Explore(needsTwo, core.ICB{}, opt)
	if b := res.FirstBug(); b == nil || b.Preemptions != 2 {
		t.Fatalf("needsTwo under cache: %v", res.Bugs)
	}
}

func TestCachedDFSMatchesCachedICBStates(t *testing.T) {
	icbRes := core.Explore(smallRacefree, core.ICB{}, cachedOpts())
	dfsRes := core.Explore(smallRacefree, baseline.DFS{}, core.Options{CheckRaces: true, StateCache: true})
	if !icbRes.Exhausted || !dfsRes.Exhausted {
		t.Fatalf("exhaustion: icb=%v dfs=%v", icbRes.Exhausted, dfsRes.Exhausted)
	}
	if icbRes.States != dfsRes.States {
		t.Fatalf("states: icb=%d dfs=%d", icbRes.States, dfsRes.States)
	}
}

// budgetSplit is the minimal program — shrunk from seed 155 of the
// differential fuzzing campaign (internal/fuzz) — on which a work-item
// table keyed only on (state, decision) violates the
// minimal-preemption-first guarantee. Two paths reach an equivalent
// state having spent different numbers of preemptions; the cheap path
// registers the work item first and cuts the expensive path, whose
// preemption-free continuation is the one that exposes the bug. The
// assertion's true minimum is 1 preemption (w1's CAS sets a=1, a
// preemption lets w0 add twice, and w1's assert sees a=3); with the
// defective key, cached ICB first sighted it only at bound 2.
func budgetSplit(t *sched.T) {
	a := conc.NewAtomicInt(t, "a", 0)
	w0 := t.Go("w0", func(t *sched.T) {
		a.Add(t, 1)
		a.Add(t, 1)
	})
	w1 := t.Go("w1", func(t *sched.T) {
		a.CompareAndSwap(t, 0, 1)
		v := a.Load(t)
		t.Assert(v <= 2, "a=%d exceeds 2", v)
	})
	t.Join(w0)
	t.Join(w1)
}

func TestCachedICBMinimalFirstWithBudgetSplit(t *testing.T) {
	plain := core.Explore(budgetSplit, core.ICB{}, icbOpts())
	cached := core.Explore(budgetSplit, core.ICB{}, cachedOpts())
	want := findBug(plain, core.BugAssert)
	if want == nil || want.Preemptions != 1 {
		t.Fatalf("uncached ICB: assertion bug not sighted at 1 preemption: %+v", plain.Bugs)
	}
	got := findBug(cached, core.BugAssert)
	if got == nil {
		t.Fatalf("cached ICB lost the assertion bug: %+v", cached.Bugs)
	}
	if got.Preemptions != want.Preemptions {
		t.Fatalf("cached ICB first sighted the bug at %d preemptions, uncached at %d",
			got.Preemptions, want.Preemptions)
	}
}

// chooseOverlap is the minimal program — shrunk from seed 1045 of the
// differential fuzzing campaign — on which a state fingerprint blind to
// data choices makes the cache unsound outright. w1's store writes a
// Choose(2) value; a fingerprint that records only the write op gives the
// prefixes "stored 0" and "stored 1" the same state, so the cache lets the
// first one to arrive consume the work-item registration and cuts the
// other, losing the subtree where the stored 1 plus w0's two increments
// drive the assertion to a=3. Before choices joined the fingerprint
// (hb.Fingerprinter.OnChoice), cached ICB missed this bug entirely and
// undercounted execution classes.
func chooseOverlap(t *sched.T) {
	a := conc.NewAtomicInt(t, "a", 0)
	w0 := t.Go("w0", func(t *sched.T) {
		a.Add(t, 1)
		a.Add(t, 1)
	})
	w1 := t.Go("w1", func(t *sched.T) {
		a.Store(t, int64(t.Choose(2)))
		v := a.Load(t)
		t.Assert(v <= 2, "a=%d exceeds 2", v)
	})
	t.Join(w0)
	t.Join(w1)
}

func TestCachedICBSoundWithDataChoices(t *testing.T) {
	plain := core.Explore(chooseOverlap, core.ICB{}, icbOpts())
	cached := core.Explore(chooseOverlap, core.ICB{}, cachedOpts())
	if !plain.Exhausted || !cached.Exhausted {
		t.Fatalf("exhaustion: plain=%v cached=%v", plain.Exhausted, cached.Exhausted)
	}
	want := findBug(plain, core.BugAssert)
	if want == nil {
		t.Fatalf("uncached ICB: no assertion bug: %+v", plain.Bugs)
	}
	got := findBug(cached, core.BugAssert)
	if got == nil {
		t.Fatalf("cached ICB lost the assertion bug: %+v", cached.Bugs)
	}
	if got.Preemptions != want.Preemptions {
		t.Fatalf("cached ICB first sighted the bug at %d preemptions, uncached at %d",
			got.Preemptions, want.Preemptions)
	}
	if cached.States != plain.States {
		t.Fatalf("states: cached=%d plain=%d", cached.States, plain.States)
	}
	if cached.ExecutionClasses != plain.ExecutionClasses {
		t.Fatalf("classes: cached=%d plain=%d", cached.ExecutionClasses, plain.ExecutionClasses)
	}
}

func findBug(res core.Result, kind core.BugKind) *core.Bug {
	for i := range res.Bugs {
		if res.Bugs[i].Kind == kind {
			return &res.Bugs[i]
		}
	}
	return nil
}
