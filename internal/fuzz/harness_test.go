package fuzz

import (
	"strings"
	"testing"

	"icb/internal/core"
	"icb/internal/sched"
)

// windowSpec is the paper's minimal-preemption pattern as a hand-written
// spec: the assertion fails only when the window thread is preempted
// inside its Store(1); Store(0) window, so the analytic minimum is 1.
func windowSpec() *Spec {
	return &Spec{
		Atomics:         1,
		ExpectWindowMin: 1,
		Threads: [][]OpSpec{
			{{Code: OpWindow, A: 0}},
			{{Code: OpAssertWindows, V: 1}},
		},
	}
}

// abbaSpec is the classic lock-order inversion: a bound-1 deadlock.
func abbaSpec() *Spec {
	return &Spec{
		Mutexes: 2,
		Threads: [][]OpSpec{
			{{Code: OpLock, A: 0}, {Code: OpLock, A: 1}, {Code: OpUnlock, A: 1}, {Code: OpUnlock, A: 0}},
			{{Code: OpLock, A: 1}, {Code: OpLock, A: 0}, {Code: OpUnlock, A: 0}, {Code: OpUnlock, A: 1}},
		},
	}
}

func TestGenerateDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		a, b := Generate(seed), Generate(seed)
		if a.String() != b.String() {
			t.Fatalf("seed %d: Generate is not deterministic:\n%s\nvs\n%s", seed, a, b)
		}
		if len(a.Threads) < 2 {
			t.Fatalf("seed %d: generated fewer than 2 threads:\n%s", seed, a)
		}
	}
}

func TestSpecTextRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		s := Generate(seed)
		data, err := s.MarshalText()
		if err != nil {
			t.Fatalf("seed %d: marshal: %v", seed, err)
		}
		back, err := ParseSpec(data)
		if err != nil {
			t.Fatalf("seed %d: parse: %v", seed, err)
		}
		if s.String() != back.String() {
			t.Fatalf("seed %d: round trip changed the spec:\n%s\nvs\n%s", seed, s, back)
		}
	}
}

// TestOracleWindowAnalytic checks the oracle itself against the one shape
// with a hand-derivable answer: the window assertion's minimal preemption
// count is exactly 1.
func TestOracleWindowAnalytic(t *testing.T) {
	truth, err := ComputeTruth(windowSpec(), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if truth.MinPreemptions != 1 {
		t.Fatalf("window min preemptions: got %d, want 1", truth.MinPreemptions)
	}
	found := false
	for id, bt := range truth.Bugs {
		if id.Kind == core.BugAssert && strings.Contains(id.Msg, windowsMessage) {
			found = true
			if bt.MinPreemptions != 1 {
				t.Fatalf("window bug min preemptions: got %d, want 1", bt.MinPreemptions)
			}
			if len(bt.Witness) == 0 {
				t.Fatal("window bug has no witness schedule")
			}
		}
	}
	if !found {
		t.Fatalf("oracle missed the window assertion; bugs: %v", truth.SortedBugs())
	}
}

func TestOracleLockOrderDeadlock(t *testing.T) {
	truth, err := ComputeTruth(abbaSpec(), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for id, bt := range truth.Bugs {
		if id.Kind == core.BugDeadlock {
			found = true
			if bt.MinPreemptions != 1 {
				t.Fatalf("ABBA deadlock min preemptions: got %d, want 1", bt.MinPreemptions)
			}
		}
	}
	if !found {
		t.Fatalf("oracle missed the ABBA deadlock; bugs: %v", truth.SortedBugs())
	}
}

// TestCheckProgramCleanOnSeeds is the in-tree slice of the acceptance
// campaign: a fixed seed range must produce zero discrepancies. The full
// 500-program acceptance run happens via cmd/icb-fuzz in CI.
func TestCheckProgramCleanOnSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign slice is not short")
	}
	checked := 0
	for seed := int64(1); seed <= 40; seed++ {
		discs, _, err := CheckProgram(Generate(seed), Limits{})
		if err != nil {
			continue // oracle budget exceeded: skipped, like the campaign
		}
		checked++
		for _, d := range discs {
			t.Errorf("%s", d)
		}
	}
	if checked < 20 {
		t.Fatalf("only %d/40 seeds fit the oracle budget; generator drifted too large", checked)
	}
}

func TestCampaignSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign smoke is not short")
	}
	stats, err := Campaign(CampaignConfig{Seed: 42, N: 10})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Programs+stats.Skipped != 10 {
		t.Fatalf("campaign accounted for %d+%d of 10 programs", stats.Programs, stats.Skipped)
	}
	if !stats.Clean() {
		t.Fatalf("campaign found discrepancies: %v", stats.Discrepancies)
	}
	if stats.Summary() == "" {
		t.Fatal("empty summary")
	}
}

// TestShrinkReducesFailingSpec exercises the shrinker on a genuine
// property violation: a spec whose ExpectWindowMin annotation is a lie
// (no window thread exists) trips oracle-window-expectation, and
// shrinking must keep the violation while dropping the padding.
func TestShrinkReducesFailingSpec(t *testing.T) {
	spec := &Spec{
		Atomics:         1,
		Mutexes:         1,
		ExpectWindowMin: 1, // deliberately wrong: no window below
		Threads: [][]OpSpec{
			{{Code: OpAtomicStore, A: 0, V: 1}, {Code: OpAtomicAdd, A: 0, V: 1}},
			{{Code: OpLock, A: 0}, {Code: OpAtomicAdd, A: 0, V: 1}, {Code: OpUnlock, A: 0}},
		},
	}
	const prop = "oracle-window-expectation"
	if discs := verify(spec, prop, Limits{}); len(discs) == 0 {
		t.Fatal("seed spec does not trip oracle-window-expectation")
	}
	shrunk := Shrink(spec, prop, Limits{})
	if shrunk.Ops() > spec.Ops() {
		t.Fatalf("shrink grew the spec: %d -> %d ops", spec.Ops(), shrunk.Ops())
	}
	if shrunk.Ops() >= spec.Ops() {
		t.Fatalf("shrink removed nothing from a padded spec (%d ops)", shrunk.Ops())
	}
	if discs := verify(shrunk, prop, Limits{}); len(discs) == 0 {
		t.Fatal("shrunk spec no longer trips the property")
	}
}

// skippingICB is a deliberately faulty reimplementation of core.ICB used
// to prove the harness catches engine defects (the issue's acceptance
// fault): at the first bound barrier it silently drops one work item, so
// one 1-preemption subtree is never explored. Everything else follows
// Algorithm 1 (no cache).
type skippingICB struct {
	drop int // index of the work item to drop at the first barrier
}

func (skippingICB) Name() string { return "skipping-icb" }

func (s skippingICB) Explore(e *core.Engine) {
	workQueue := []sched.Schedule{nil}
	var nextWork []sched.Schedule
	currBound := 0
	dropped := false
	for {
		e.BeginBound(currBound, len(workQueue))
		for head := 0; head < len(workQueue); head++ {
			if e.Done() {
				return
			}
			faultySearch(e, workQueue[head], &nextWork)
		}
		if e.Done() {
			return
		}
		e.SetBoundCompleted(currBound)
		if !dropped && len(nextWork) > 0 {
			// THE FAULT: one seed vanishes at the bound barrier.
			i := s.drop % len(nextWork)
			nextWork = append(nextWork[:i], nextWork[i+1:]...)
			dropped = true
		}
		if len(nextWork) == 0 {
			e.MarkExhausted()
			return
		}
		currBound++
		workQueue = nextWork
		nextWork = nil
	}
}

// faultySearch is searchNoPreempt without the work-item cache.
func faultySearch(e *core.Engine, start sched.Schedule, next *[]sched.Schedule) {
	stack := []sched.Schedule{start}
	for len(stack) > 0 {
		path := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		ctrl := &faultyController{
			path:      path,
			onPreempt: func(alt sched.Schedule) { *next = append(*next, alt) },
			onLocal:   func(alt sched.Schedule) { stack = append(stack, alt) },
		}
		if _, done := e.RunExecution(ctrl); done {
			return
		}
	}
}

type faultyController struct {
	path      sched.Schedule
	pos       int
	cur       sched.Schedule
	onPreempt func(sched.Schedule)
	onLocal   func(sched.Schedule)
}

func (c *faultyController) PickThread(info sched.PickInfo) (sched.TID, bool) {
	if c.pos < len(c.path) {
		d := c.path[c.pos]
		c.pos++
		c.cur = append(c.cur, d)
		return d.Thread, true
	}
	if info.PrevEnabled {
		for _, u := range info.Enabled {
			if u != info.Prev {
				c.onPreempt(c.cur.Extend(sched.ThreadDecision(u)))
			}
		}
		c.cur = append(c.cur, sched.ThreadDecision(info.Prev))
		return info.Prev, true
	}
	pick := info.Enabled[0]
	for _, u := range info.Enabled[1:] {
		c.onLocal(c.cur.Extend(sched.ThreadDecision(u)))
	}
	c.cur = append(c.cur, sched.ThreadDecision(pick))
	return pick, true
}

func (c *faultyController) PickData(t sched.TID, n int) int {
	if c.pos < len(c.path) {
		d := c.path[c.pos]
		c.pos++
		c.cur = append(c.cur, d)
		return d.Data
	}
	for v := 1; v < n; v++ {
		c.onLocal(c.cur.Extend(sched.DataDecision(v)))
	}
	c.cur = append(c.cur, sched.DataDecision(0))
	return 0
}

// TestInjectedFaultCaught is the issue's acceptance check: an engine that
// skips one seed at the bound barrier must be flagged by the harness.
// The control run (the real ICB through the same entry point) must stay
// clean; at least one drop position must perturb the window bug itself
// (coverage or minimal sighting), not just the completed-bound count.
func TestInjectedFaultCaught(t *testing.T) {
	spec := windowSpec()
	truth, err := ComputeTruth(spec, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if discs := CheckUnboundedICB(spec, truth, core.ICB{}, Limits{}); len(discs) != 0 {
		t.Fatalf("control: real ICB flagged: %v", discs)
	}

	caught, lostBug := 0, false
	for drop := 0; drop < 6; drop++ {
		discs := CheckUnboundedICB(spec, truth, skippingICB{drop: drop}, Limits{})
		if len(discs) > 0 {
			caught++
			for _, d := range discs {
				t.Logf("drop=%d: %s", drop, d)
				if strings.Contains(d.Detail, windowsMessage) {
					lostBug = true
				}
			}
		}
	}
	if caught == 0 {
		t.Fatal("no drop position was caught: the harness is blind to a skipped bound-barrier seed")
	}
	if !lostBug {
		t.Fatal("no drop position perturbed the window bug; the fault injection is not exercising bug coverage")
	}
}

// droppingResume is a deliberately faulty resume: it loses the first item
// of the snapshot's current-bound queue before the search continues, so
// one subtree of the interrupted bound is never explored.
type droppingResume struct{ core.ICB }

func (d droppingResume) Explore(e *core.Engine) {
	if st := e.Options().Resume; st != nil && len(st.SeedQueue) > 0 {
		st.SeedQueue = st.SeedQueue[1:]
	}
	d.ICB.Explore(e)
}

// TestInjectedResumeFaultCaught shows the resume leg has teeth: a resume
// that drops one queued item must be reported, while the real resume
// stays clean at the same stop points.
func TestInjectedResumeFaultCaught(t *testing.T) {
	caught := 0
	for seed := int64(0); seed < 6; seed++ {
		spec := windowSpec()
		spec.Seed = seed // moves the leg's stop point
		truth, err := ComputeTruth(spec, Limits{})
		if err != nil {
			t.Fatal(err)
		}
		lim := Limits{}
		lim.fill()
		control := &checker{spec: spec, truth: truth, lim: lim}
		control.resumeLeg(core.ICB{}, control.baseOpts(), true)
		if len(control.discs) != 0 {
			t.Fatalf("seed %d: control: real resume flagged: %v", seed, control.discs)
		}
		faulty := &checker{spec: spec, truth: truth, lim: lim}
		faulty.resumeLeg(droppingResume{}, faulty.baseOpts(), true)
		for _, d := range faulty.discs {
			t.Logf("seed %d: %s", seed, d)
			if d.Property == "resume" {
				caught++
			}
		}
	}
	if caught == 0 {
		t.Fatal("no stop point caught a resume that drops a queued item: the resume leg is blind")
	}
}
