package core_test

import (
	"encoding/json"
	"testing"

	"icb/internal/core"
	"icb/internal/progs"
	"icb/internal/progs/ape"
	"icb/internal/progs/bluetooth"
	"icb/internal/progs/dryad"
	"icb/internal/progs/fsmodel"
	"icb/internal/progs/wsq"
	"icb/internal/sched"
)

// bporPrograms are the small fixed programs BPOR is compared against plain
// ICB on: buggy and correct, lock-heavy and yield-heavy, one needing two
// preemptions (so the conservative backtracking points matter).
var bporPrograms = []struct {
	name string
	prog sched.Program
}{
	{"needsOne", needsOne},
	{"needsTwo", needsTwo},
	{"yielders", yielders},
	{"smallRacefree", smallRacefree},
}

// TestBPORMatchesPlainICB is the core equivalence check: with and without
// the reduction, an exhaustive ICB search must report the same bug set,
// the same execution-class count, the same completed bound — while running
// at most as many executions.
func TestBPORMatchesPlainICB(t *testing.T) {
	for _, cache := range []bool{false, true} {
		for _, tc := range bporPrograms {
			name := tc.name
			if cache {
				name += "/cache"
			}
			t.Run(name, func(t *testing.T) {
				opt := icbOpts()
				opt.StateCache = cache
				plain := core.Explore(tc.prog, core.ICB{}, opt)
				opt.BPOR = true
				red := core.Explore(tc.prog, core.ICB{}, opt)

				if !red.BPOR {
					t.Fatal("Result.BPOR not set on a -bpor run")
				}
				if got, want := bugList(red), bugList(plain); !equalStrings(got, want) {
					t.Errorf("bug sets differ: bpor=%v plain=%v", got, want)
				}
				if red.ExecutionClasses != plain.ExecutionClasses {
					t.Errorf("ExecutionClasses = %d, plain = %d", red.ExecutionClasses, plain.ExecutionClasses)
				}
				if !red.Exhausted {
					t.Error("bpor search did not exhaust")
				}
				if red.Executions > plain.Executions {
					t.Errorf("bpor ran %d executions, plain %d — reduction made it worse",
						red.Executions, plain.Executions)
				}
			})
		}
	}
}

// TestBPORFirstSightingMinimal checks the minimal-preemption-first
// guarantee survives the reduction: the first sighting of each bug carries
// the program's true minimal preemption count.
func TestBPORFirstSightingMinimal(t *testing.T) {
	for _, tc := range []struct {
		prog sched.Program
		want int
	}{
		{needsOne, 1},
		{needsTwo, 2},
	} {
		opt := icbOpts()
		opt.BPOR = true
		opt.StopOnFirstBug = true
		res := core.Explore(tc.prog, core.ICB{}, opt)
		bug := res.FirstBug()
		if bug == nil {
			t.Fatal("no bug found under bpor")
		}
		if bug.Preemptions != tc.want {
			t.Fatalf("bpor first sighting at %d preemptions, want %d", bug.Preemptions, tc.want)
		}
		// The exposing schedule must replay to the same failure.
		if _, bugs := core.ReplayBugs(tc.prog, bug.Schedule, icbOpts()); len(bugs) == 0 {
			t.Fatalf("bpor bug schedule %v does not replay", bug.Schedule)
		}
	}
}

// TestBPORSavesExecutions pins that the reduction actually prunes on a
// program with independent work: fewer executions than plain ICB, a
// positive BPORPruned, and identical classes.
func TestBPORSavesExecutions(t *testing.T) {
	opt := icbOpts()
	opt.MaxPreemptions = 2
	plain := core.Explore(smallRacefree, core.ICB{}, opt)
	opt.BPOR = true
	red := core.Explore(smallRacefree, core.ICB{}, opt)
	if red.Executions >= plain.Executions {
		t.Errorf("bpor executions = %d, plain = %d: no saving", red.Executions, plain.Executions)
	}
	if red.BPORPruned <= 0 {
		t.Errorf("BPORPruned = %d, want > 0", red.BPORPruned)
	}
	if red.ExecutionClasses != plain.ExecutionClasses {
		t.Errorf("ExecutionClasses = %d, plain = %d", red.ExecutionClasses, plain.ExecutionClasses)
	}
}

// TestBPORParallelMatchesSequential checks the shared registration table
// under concurrent workers preserves the deterministic outcomes (bug set,
// classes, exhaustion); execution counts may differ run to run.
func TestBPORParallelMatchesSequential(t *testing.T) {
	opt := icbOpts()
	opt.BPOR = true
	seq := core.Explore(needsTwo, core.ICB{}, opt)
	par := core.Explore(needsTwo, core.ParallelICB{Workers: 3}, opt)
	if got, want := bugList(par), bugList(seq); !equalStrings(got, want) {
		t.Errorf("parallel bug set %v != sequential %v", got, want)
	}
	if par.ExecutionClasses != seq.ExecutionClasses {
		t.Errorf("parallel classes = %d, sequential = %d", par.ExecutionClasses, seq.ExecutionClasses)
	}
	if !par.Exhausted {
		t.Error("parallel bpor search did not exhaust")
	}
}

// TestBPORResumeRejectsMixing pins the checkpoint guard: a snapshot taken
// with the reduction cannot seed a search without it, and vice versa.
func TestBPORResumeRejectsMixing(t *testing.T) {
	st := &core.SearchState{BPOR: true}
	if err := core.ValidateResume(st, core.Options{}); err == nil {
		t.Error("BPOR snapshot accepted by a non-BPOR search")
	}
	if err := core.ValidateResume(&core.SearchState{}, core.Options{BPOR: true}); err == nil {
		t.Error("non-BPOR snapshot accepted by a BPOR search")
	}
	if err := core.ValidateResume(st, core.Options{BPOR: true}); err != nil {
		t.Errorf("matching BPOR snapshot rejected: %v", err)
	}
}

// TestBPORPinsReducedSearch pins the reduced search itself, not just its
// guarantees: the five correct benchmarks, uncached with races checked, at
// the bounds the drain-bpor benchmark workload exhausts, must run exactly
// these executions and reach exactly these states, classes and pruning
// counts. CompareBPOR only catches growth; this also catches a reordered,
// dropped or duplicated backtracking emission, which shifts the counts.
func TestBPORPinsReducedSearch(t *testing.T) {
	for _, tc := range []struct {
		bench                               *progs.Benchmark
		bound                               int
		executions, states, classes, pruned int
	}{
		{bluetooth.Benchmark(), 2, 1319, 8488, 362, 2322},
		{fsmodel.Benchmark(), 2, 854, 820, 4, 3030},
		{wsq.Benchmark(), 2, 336, 7792, 199, 325},
		{ape.Benchmark(), 2, 515, 3116, 64, 793},
		{dryad.Benchmark(), 0, 268, 1110, 12, 1188},
	} {
		res := core.Explore(tc.bench.Correct, core.ICB{}, core.Options{
			MaxPreemptions: tc.bound,
			CheckRaces:     true,
			BPOR:           true,
		})
		if res.Executions != tc.executions || res.States != tc.states ||
			res.ExecutionClasses != tc.classes || res.BPORPruned != int64(tc.pruned) {
			t.Errorf("%s bound %d: executions/states/classes/pruned = %d/%d/%d/%d, want %d/%d/%d/%d",
				tc.bench.Name, tc.bound, res.Executions, res.States, res.ExecutionClasses, res.BPORPruned,
				tc.executions, tc.states, tc.classes, tc.pruned)
		}
		if res.BoundCompleted != tc.bound || len(res.Bugs) != 0 {
			t.Errorf("%s: completed bound %d with %d bugs, want bound %d and none",
				tc.bench.Name, res.BoundCompleted, len(res.Bugs), tc.bound)
		}
	}
}

// finalSnap keeps the last final snapshot a search captures, JSON
// round-tripped like a checkpoint file.
type finalSnap struct{ js []byte }

func (f *finalSnap) Due() bool { return false }

func (f *finalSnap) Capture(st *core.SearchState, final bool) {
	if !final {
		return
	}
	js, err := json.Marshal(st)
	if err != nil {
		panic(err)
	}
	f.js = js
}

// abortedExecs records which executions of a search aborted (assertion
// failure, panic or step limit).
type abortedExecs struct{ at map[int]bool }

func (a *abortedExecs) ObserveOutcome(execution int, out sched.Outcome) {
	switch out.Status {
	case sched.StatusAssertFailed, sched.StatusPanic, sched.StatusStepLimit:
		a.at[execution] = true
	}
}

// TestBPORStopResumeExact stops a reduced search by execution budget and
// resumes it from the stop snapshot: the two lives together must run
// exactly the uninterrupted search. The stops land right after each
// aborted execution of the Bluetooth stop-window variant at bound 1 (its
// assertion fails along many interleavings), the case where the snapshot
// must keep the aborted execution's blind-expansion items (see
// bporExpandTruncated), and after every 10th execution besides.
func TestBPORStopResumeExact(t *testing.T) {
	prog := bluetooth.Benchmark().FindBug("stop-window").Program
	for _, cache := range []bool{false, true} {
		opt := core.Options{MaxPreemptions: 1, CheckRaces: true, BPOR: true, StateCache: cache}
		aborted := &abortedExecs{at: map[int]bool{}}
		traced := opt
		traced.TraceObserver = aborted
		ref := core.Explore(prog, core.ICB{}, traced)
		if ref.BoundCompleted != 1 || len(aborted.at) == 0 {
			t.Fatalf("cache=%v: reference completed bound %d with %d aborted executions",
				cache, ref.BoundCompleted, len(aborted.at))
		}
		for n := 1; n < ref.Executions; n++ {
			if !aborted.at[n] && n%10 != 0 {
				continue
			}
			snap := &finalSnap{}
			stopped := opt
			stopped.MaxExecutions = n
			stopped.Checkpoint = snap
			core.Explore(prog, core.ICB{}, stopped)
			var st core.SearchState
			if err := json.Unmarshal(snap.js, &st); err != nil {
				t.Fatalf("cache=%v, stop at %d: snapshot does not round-trip: %v", cache, n, err)
			}
			resumed := opt
			resumed.Resume = &st
			got := core.Explore(prog, core.ICB{}, resumed)
			if got.Executions != ref.Executions || got.ExecutionClasses != ref.ExecutionClasses ||
				got.States != ref.States || got.BPORPruned != ref.BPORPruned ||
				got.BoundCompleted != ref.BoundCompleted {
				t.Fatalf("cache=%v, stop at %d: resumed executions/classes/states/pruned/bound = %d/%d/%d/%d/%d, uninterrupted %d/%d/%d/%d/%d",
					cache, n, got.Executions, got.ExecutionClasses, got.States, got.BPORPruned, got.BoundCompleted,
					ref.Executions, ref.ExecutionClasses, ref.States, ref.BPORPruned, ref.BoundCompleted)
			}
		}
	}
}

// TestBPORParallelStopResume is the work-stealing search's leg of
// TestBPORStopResumeExact. Which executions run before a stop depends on
// the worker interleaving, so only the deterministic outputs are compared:
// a resumed search must still complete the bound with every class and bug
// of the uninterrupted one.
func TestBPORParallelStopResume(t *testing.T) {
	prog := bluetooth.Benchmark().FindBug("stop-window").Program
	par := core.ParallelICB{Workers: 2}
	opt := core.Options{MaxPreemptions: 1, CheckRaces: true, BPOR: true}
	ref := core.Explore(prog, core.ICB{}, opt)
	for n := 5; n < ref.Executions; n += 5 {
		snap := &finalSnap{}
		stopped := opt
		stopped.MaxExecutions = n
		stopped.Checkpoint = snap
		core.Explore(prog, par, stopped)
		var st core.SearchState
		if err := json.Unmarshal(snap.js, &st); err != nil {
			t.Fatalf("stop at %d: snapshot does not round-trip: %v", n, err)
		}
		resumed := opt
		resumed.Resume = &st
		got := core.Explore(prog, par, resumed)
		if got.ExecutionClasses != ref.ExecutionClasses || got.BoundCompleted != ref.BoundCompleted ||
			!equalStrings(bugList(got), bugList(ref)) {
			t.Fatalf("stop at %d: resumed classes %d, bound %d, bugs %v; uninterrupted %d, %d, %v",
				n, got.ExecutionClasses, got.BoundCompleted, bugList(got),
				ref.ExecutionClasses, ref.BoundCompleted, bugList(ref))
		}
	}
}

func bugList(r core.Result) []string {
	var out []string
	for _, b := range r.Bugs {
		out = append(out, b.Kind.String()+": "+b.Message)
	}
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	seen := map[string]int{}
	for _, s := range a {
		seen[s]++
	}
	for _, s := range b {
		if seen[s] == 0 {
			return false
		}
		seen[s]--
	}
	return true
}
