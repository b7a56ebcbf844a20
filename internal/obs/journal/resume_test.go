package journal

import (
	"encoding/json"
	"reflect"
	"sort"
	"strconv"
	"sync/atomic"
	"testing"

	"icb/internal/core"
	"icb/internal/exper"
	"icb/internal/obs"
	"icb/internal/sched"
)

// wsqStealUnlocked returns the paper's work-stealing-queue benchmark with
// the steal-unlocked bug seeded — the workload the Table-1 row pins.
func wsqStealUnlocked(t *testing.T) sched.Program {
	t.Helper()
	b := exper.Benchmarks()[2]
	bug := b.FindBug("steal-unlocked")
	if b.Name != "Work Stealing Queue" || bug == nil {
		t.Fatalf("benchmark table changed: got %q, steal-unlocked=%v", b.Name, bug)
	}
	return bug.Program
}

// capSink captures a JSON-serialized snapshot at every execution boundary
// (plus barriers and the final capture), exactly as a journal writer with
// a zero periodic interval would. Serializing at capture time both
// deep-copies the state (the engine mutates its slices afterwards) and
// exercises the checkpoint.json round trip.
type capSink struct {
	snaps  [][]byte
	finals []bool
}

func (c *capSink) Due() bool { return true }

func (c *capSink) Capture(st *core.SearchState, final bool) {
	js, err := json.Marshal(st)
	if err != nil {
		panic(err)
	}
	c.snaps = append(c.snaps, js)
	c.finals = append(c.finals, final)
}

func wsqOptions() core.Options {
	return core.Options{
		MaxPreemptions: 2,
		CheckRaces:     true,
		StopOnFirstBug: false,
	}
}

// normalize zeroes the wall-clock fields, the only Result fields a resumed
// run may legitimately differ in.
func normalize(res core.Result) core.Result {
	res.Duration = 0
	for i := range res.BoundStats {
		res.BoundStats[i].Duration = 0
	}
	return res
}

// TestResumeEveryBoundaryIdentical is the pinned exactness test: a
// sequential wsq bound-2 search checkpointed at every execution boundary
// must, resumed from any of those snapshots, produce a Result identical to
// the uninterrupted run's (wall-clock durations aside). This is the
// property that makes -resume trustworthy: a crash at any instant loses
// nothing but time.
func TestResumeEveryBoundaryIdentical(t *testing.T) {
	prog := wsqStealUnlocked(t)

	cs := &capSink{}
	opt := wsqOptions()
	opt.Checkpoint = cs
	ref := normalize(core.Explore(prog, core.ICB{}, opt))
	if ref.Executions == 0 || len(ref.Bugs) == 0 {
		t.Fatalf("reference run found nothing: %+v", ref)
	}
	if len(cs.snaps) < ref.Executions {
		t.Fatalf("captured %d snapshots over %d executions; want one per boundary", len(cs.snaps), ref.Executions)
	}
	t.Logf("reference: %d executions, %d bugs, %d snapshots", ref.Executions, len(ref.Bugs), len(cs.snaps))

	for i, js := range cs.snaps {
		var st core.SearchState
		if err := json.Unmarshal(js, &st); err != nil {
			t.Fatalf("snapshot %d does not round-trip: %v", i, err)
		}
		ropt := wsqOptions()
		ropt.Resume = &st
		if err := core.ValidateResume(&st, ropt); err != nil {
			t.Fatalf("snapshot %d rejected: %v", i, err)
		}
		got := normalize(core.Explore(prog, core.ICB{}, ropt))
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("resume from snapshot %d (bound %d, exec %d) diverged:\n got %+v\nwant %+v",
				i, st.Bound, st.Result.Executions, got, ref)
		}
	}
}

// TestResumeEveryBoundaryIdenticalCached repeats the exactness test with
// the Algorithm 1 work-item table on, with bounded partial-order reduction
// on, and with both: the restored table must prune exactly what the
// uninterrupted run's would have, and the restored BPOR registration table
// and counters must reduce exactly as it would have.
func TestResumeEveryBoundaryIdenticalCached(t *testing.T) {
	prog := wsqStealUnlocked(t)

	for _, tc := range []struct {
		name             string
		stateCache, bpor bool
	}{
		{"cache", true, false},
		{"bpor", false, true},
		{"bpor+cache", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			options := func() core.Options {
				opt := wsqOptions()
				opt.StateCache = tc.stateCache
				opt.BPOR = tc.bpor
				return opt
			}
			cs := &capSink{}
			opt := options()
			opt.Checkpoint = cs
			ref := normalize(core.Explore(prog, core.ICB{}, opt))
			if ref.BPOR != tc.bpor {
				t.Fatalf("Result.BPOR = %v, want %v", ref.BPOR, tc.bpor)
			}

			// Every 7th snapshot keeps these variants fast while still
			// probing boundaries across all bounds.
			for i := 0; i < len(cs.snaps); i += 7 {
				var st core.SearchState
				if err := json.Unmarshal(cs.snaps[i], &st); err != nil {
					t.Fatalf("snapshot %d does not round-trip: %v", i, err)
				}
				ropt := options()
				ropt.Resume = &st
				if err := core.ValidateResume(&st, ropt); err != nil {
					t.Fatalf("snapshot %d rejected: %v", i, err)
				}
				got := normalize(core.Explore(prog, core.ICB{}, ropt))
				if !reflect.DeepEqual(got, ref) {
					t.Fatalf("resume from snapshot %d (bound %d, exec %d) diverged:\n got %+v\nwant %+v",
						i, st.Bound, st.Result.Executions, got, ref)
				}
			}
		})
	}
}

// stopAfter flips the stop flag once the search has run n executions.
type stopAfter struct {
	obs.Nop
	n    int
	seen atomic.Int64
	stop *atomic.Bool
}

func (s *stopAfter) ExecutionDone(obs.ExecutionEvent) {
	if s.seen.Add(1) == int64(s.n) {
		s.stop.Store(true)
	}
}

// TestParallelResumeBugSetIdentical interrupts a 4-worker parallel search
// mid-bound and resumes it (still parallel): the union of bugs over the
// two lives must equal the uninterrupted run's bug set, and the completed
// bound and coverage counts must match. Execution order within a bound is
// worker-schedule dependent, so exact per-execution equality is not
// guaranteed — the bug set and bound guarantee are.
func TestParallelResumeBugSetIdentical(t *testing.T) {
	prog := wsqStealUnlocked(t)
	par := core.ParallelICB{Workers: 4}

	ref := core.Explore(prog, par, wsqOptions())

	cs := &capSink{}
	stop := &atomic.Bool{}
	opt := wsqOptions()
	opt.Checkpoint = cs
	opt.Stop = stop
	opt.Sink = &stopAfter{n: ref.Executions / 3, stop: stop}
	interrupted := core.Explore(prog, par, opt)
	if interrupted.Executions >= ref.Executions {
		t.Skipf("search finished (%d execs) before the stop landed; nothing interrupted to resume", interrupted.Executions)
	}
	if len(cs.snaps) == 0 || !cs.finals[len(cs.snaps)-1] {
		t.Fatalf("interrupted run captured no final snapshot (snaps=%d)", len(cs.snaps))
	}

	var st core.SearchState
	if err := json.Unmarshal(cs.snaps[len(cs.snaps)-1], &st); err != nil {
		t.Fatalf("final snapshot does not round-trip: %v", err)
	}
	ropt := wsqOptions()
	ropt.Resume = &st
	got := core.Explore(prog, par, ropt)

	key := func(b core.Bug) string { return b.Kind.String() + "\x00" + b.Message }
	want := make([]string, 0, len(ref.Bugs))
	for _, b := range ref.Bugs {
		want = append(want, key(b))
	}
	have := make([]string, 0, len(got.Bugs))
	for _, b := range got.Bugs {
		have = append(have, key(b))
	}
	sort.Strings(want)
	sort.Strings(have)
	if !reflect.DeepEqual(have, want) {
		t.Errorf("bug sets differ after parallel resume:\n got %q\nwant %q", have, want)
	}
	if got.BoundCompleted != ref.BoundCompleted {
		t.Errorf("BoundCompleted = %d, want %d", got.BoundCompleted, ref.BoundCompleted)
	}
	if got.States != ref.States || got.ExecutionClasses != ref.ExecutionClasses {
		t.Errorf("coverage counts: states %d classes %d, want %d and %d",
			got.States, got.ExecutionClasses, ref.States, ref.ExecutionClasses)
	}
	if got.Executions != ref.Executions {
		t.Errorf("Executions = %d, want %d", got.Executions, ref.Executions)
	}
}

// TestParallelResumeEveryBoundary interrupts a work-stealing 2-worker
// search after every possible execution count n and resumes each stop
// snapshot (still stealing): the union over the two lives must equal the
// uninterrupted parallel run in every deterministic output — executions,
// coverage counts, completed bound, per-bound attribution, and the bug set
// with per-bug minimal preemption counts and sighting counts. This is the
// stealing scheduler's analogue of TestResumeEveryBoundaryIdentical: the
// snapshot must capture the full three-bound live window (including work
// deferred two bounds ahead by early execution and held-back early bug
// sightings) or some resumed run below would lose a subtree or misreport a
// minimum.
func TestParallelResumeEveryBoundary(t *testing.T) {
	prog := wsqStealUnlocked(t)
	par := core.ParallelICB{Workers: 2}

	ref := core.Explore(prog, par, wsqOptions())
	if ref.Executions == 0 || len(ref.Bugs) == 0 || !ref.Exhausted && ref.BoundCompleted < 2 {
		t.Fatalf("reference run found nothing: %+v", ref)
	}

	facts := func(res core.Result) []string {
		var out []string
		for i := range res.Bugs {
			b := &res.Bugs[i]
			out = append(out, b.Kind.String()+"|"+b.Message+
				"|p="+itoa(b.Preemptions)+"|n="+itoa(b.Count))
		}
		sort.Strings(out)
		return out
	}
	boundExecs := func(res core.Result) []int {
		var out []int
		for _, bc := range res.BoundCurve {
			out = append(out, bc.Executions)
		}
		return out
	}
	wantFacts := facts(ref)
	wantBounds := boundExecs(ref)

	for n := 1; n < ref.Executions; n++ {
		cs := &capSink{}
		stop := &atomic.Bool{}
		opt := wsqOptions()
		opt.Checkpoint = cs
		opt.Stop = stop
		opt.Sink = &stopAfter{n: n, stop: stop}
		interrupted := core.Explore(prog, par, opt)
		if interrupted.Executions >= ref.Executions {
			// In-flight workers may finish the whole remainder before the
			// stop lands near the end; nothing is interrupted then.
			continue
		}
		if len(cs.snaps) == 0 || !cs.finals[len(cs.snaps)-1] {
			t.Fatalf("n=%d: no final snapshot captured", n)
		}
		var st core.SearchState
		if err := json.Unmarshal(cs.snaps[len(cs.snaps)-1], &st); err != nil {
			t.Fatalf("n=%d: final snapshot does not round-trip: %v", n, err)
		}
		if st.Scheduler != core.SchedulerWS {
			t.Fatalf("n=%d: snapshot scheduler = %q, want %q", n, st.Scheduler, core.SchedulerWS)
		}
		ropt := wsqOptions()
		ropt.Resume = &st
		if err := core.ValidateResumeWorkers(&st, par.NumWorkers()); err != nil {
			t.Fatalf("n=%d: snapshot rejected: %v", n, err)
		}
		got := core.Explore(prog, par, ropt)

		if got.Executions != ref.Executions {
			t.Errorf("n=%d: executions = %d, want %d", n, got.Executions, ref.Executions)
		}
		if got.States != ref.States || got.ExecutionClasses != ref.ExecutionClasses {
			t.Errorf("n=%d: coverage states=%d classes=%d, want %d and %d",
				n, got.States, got.ExecutionClasses, ref.States, ref.ExecutionClasses)
		}
		if got.BoundCompleted != ref.BoundCompleted || got.Exhausted != ref.Exhausted {
			t.Errorf("n=%d: boundCompleted=%d exhausted=%v, want %d and %v",
				n, got.BoundCompleted, got.Exhausted, ref.BoundCompleted, ref.Exhausted)
		}
		if gf := facts(got); !reflect.DeepEqual(gf, wantFacts) {
			t.Errorf("n=%d: bug facts %q, want %q", n, gf, wantFacts)
		}
		if gb := boundExecs(got); !reflect.DeepEqual(gb, wantBounds) {
			t.Errorf("n=%d: per-bound executions %v, want %v", n, gb, wantBounds)
		}
		if t.Failed() {
			t.Fatalf("n=%d: first divergence, stopping (interrupted at %d execs, snapshot bound %d)",
				n, interrupted.Executions, st.Bound)
		}
	}
}

func itoa(n int) string { return strconv.Itoa(n) }

// TestValidateResumeRejections spot-checks the structural guards.
func TestValidateResumeRejections(t *testing.T) {
	opt := wsqOptions()
	if err := core.ValidateResume(&core.SearchState{Bound: -2}, opt); err == nil {
		t.Error("negative bound accepted")
	}
	if err := core.ValidateResume(&core.SearchState{Bound: 9}, opt); err == nil {
		t.Error("bound beyond the budget accepted")
	}
	st := &core.SearchState{Bound: 1, CacheKeys: []core.CacheKeyState{{State: 1}}}
	if err := core.ValidateResume(st, opt); err == nil {
		t.Error("work-item table accepted without state caching on")
	}
	opt.StateCache = true
	st = &core.SearchState{Bound: 1, Result: core.Result{Executions: 10}}
	if err := core.ValidateResume(st, opt); err == nil {
		t.Error("cached resume accepted without a work-item table")
	}
	opt = wsqOptions()
	if err := core.ValidateResume(&core.SearchState{Bound: 1, Scheduler: "ws/99"}, opt); err == nil {
		t.Error("unknown scheduler version accepted")
	}
	if err := core.ValidateResumeWorkers(&core.SearchState{Bound: 1, Scheduler: core.SchedulerWS}, 1); err == nil {
		t.Error("work-stealing snapshot accepted by a sequential resume")
	}
	if err := core.ValidateResumeWorkers(&core.SearchState{Bound: 1}, 4); err == nil {
		t.Error("sequential snapshot accepted by a parallel resume")
	}
	if err := core.ValidateResumeWorkers(&core.SearchState{Bound: 1, Scheduler: core.SchedulerWS}, 4); err != nil {
		t.Errorf("matching work-stealing resume rejected: %v", err)
	}
	if err := core.ValidateResumeWorkers(&core.SearchState{Bound: 1}, 1); err != nil {
		t.Errorf("matching sequential resume rejected: %v", err)
	}
}
