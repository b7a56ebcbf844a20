package fuzz

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"

	"icb/internal/baseline"
	"icb/internal/core"
	"icb/internal/obs"
	"icb/internal/sched"
)

// Discrepancy is one violated cross-check property: the harness's entire
// output. A clean campaign produces none.
type Discrepancy struct {
	// Seed identifies the generated program.
	Seed int64
	// Property names the violated cross-check (e.g. "icb-vs-oracle").
	Property string
	// Detail describes the violation.
	Detail string
	// Witness is an exposing schedule when one is known.
	Witness sched.Schedule
}

// String renders the discrepancy for logs and reports.
func (d Discrepancy) String() string {
	s := fmt.Sprintf("seed %d [%s]: %s", d.Seed, d.Property, d.Detail)
	if len(d.Witness) > 0 {
		s += fmt.Sprintf(" (witness: %s)", d.Witness)
	}
	return s
}

// csbMaxTruth gates the expensive CSB cross-check: context-switch bounding
// revisits prefixes so aggressively (the ablation experiment measured a
// >200x execution blowup) that it is only cross-checked on programs whose
// full schedule space is small.
const csbMaxTruth = 250

// CheckProgram computes the ground truth for the spec and cross-checks
// every strategy against it. It returns the discrepancies (nil for a clean
// program) and the truth; err is non-nil only when the program was skipped
// (ErrTooBig) or its truth could not be computed.
func CheckProgram(spec *Spec, lim Limits) ([]Discrepancy, *Truth, error) {
	lim.fill()
	truth, err := ComputeTruth(spec, lim)
	if err != nil {
		return nil, nil, err
	}
	return CheckAgainstTruth(spec, truth, lim), truth, nil
}

// CheckAgainstTruth runs every cross-check property for a spec whose
// ground truth is already known.
func CheckAgainstTruth(spec *Spec, truth *Truth, lim Limits) []Discrepancy {
	lim.fill()
	c := &checker{spec: spec, truth: truth, lim: lim}

	// Property 1: the two race detectors agreed on every enumerated
	// execution (recorded by the oracle as it went).
	for _, d := range truth.DetectorDisagreements {
		c.fail("race-detectors", d, nil)
	}

	// Property 2: on template programs with an analytically known minimal
	// preemption count, the oracle itself is checked against it — guarding
	// the guard.
	if spec.ExpectWindowMin > 0 {
		id := BugID{core.BugAssert, windowsMessage}
		bt := truth.Bugs[id]
		switch {
		case bt == nil:
			c.fail("oracle-window-expectation",
				fmt.Sprintf("injected window bug %q absent from oracle truth", windowsMessage), nil)
		case bt.MinPreemptions != spec.ExpectWindowMin:
			c.fail("oracle-window-expectation",
				fmt.Sprintf("injected window bug has oracle min preemptions %d, analytic value %d",
					bt.MinPreemptions, spec.ExpectWindowMin), bt.Witness)
		}
	}

	dfsRes := c.checkDFS()
	icbRes := c.checkICB(core.ICB{}, "icb-vs-oracle")
	if dfsRes != nil && icbRes != nil {
		if icbRes.States != dfsRes.States || icbRes.ExecutionClasses != dfsRes.ExecutionClasses {
			c.fail("icb-vs-oracle", fmt.Sprintf(
				"exhaustive ICB visited %d states / %d classes, exhaustive DFS %d / %d",
				icbRes.States, icbRes.ExecutionClasses, dfsRes.States, dfsRes.ExecutionClasses), nil)
		}
	}
	c.checkBoundary()
	c.checkCSB(dfsRes)
	c.checkParallel()
	c.checkCache(icbRes)
	c.checkBPOR(icbRes)
	c.checkResume()
	c.checkReplayAndMinimize(icbRes)
	return c.discs
}

// CheckUnboundedICB cross-checks a single ICB-semantics strategy (bug set,
// per-bug minimal preemptions, exhaustion, completed bound) against a
// known truth. It is the hook the fault-injection test uses to demonstrate
// the harness catches a deliberately broken engine.
func CheckUnboundedICB(spec *Spec, truth *Truth, s core.Strategy, lim Limits) []Discrepancy {
	lim.fill()
	c := &checker{spec: spec, truth: truth, lim: lim}
	c.checkICB(s, "icb-vs-oracle")
	return c.discs
}

type checker struct {
	spec  *Spec
	truth *Truth
	lim   Limits
	discs []Discrepancy
}

func (c *checker) fail(prop, detail string, witness sched.Schedule) {
	c.discs = append(c.discs, Discrepancy{
		Seed:     c.spec.Seed,
		Property: prop,
		Detail:   detail,
		Witness:  witness,
	})
}

// failsafe is the MaxExecutions safety net for strategy runs: far above
// the oracle's execution count, so hitting it means the strategy itself is
// broken (looping or duplicating work), which the per-property comparisons
// then report.
func (c *checker) failsafe() int { return c.lim.MaxExecutions*20 + 1000 }

func (c *checker) baseOpts() core.Options {
	return core.Options{
		MaxPreemptions: -1,
		MaxExecutions:  c.failsafe(),
		MaxSteps:       c.lim.MaxSteps,
		CheckRaces:     true,
		Metrics:        c.lim.Metrics,
		Profiler:       c.lim.Profiler,
	}
}

// explore runs one strategy, converting any panic — the engine's
// replay-divergence and ICB's preemption-count invariant both panic — into
// a discrepancy.
func (c *checker) explore(prog sched.Program, s core.Strategy, opt core.Options, prop string) (res *core.Result) {
	defer func() {
		if r := recover(); r != nil {
			c.fail(prop, fmt.Sprintf("strategy %s panicked: %v", s.Name(), r), nil)
			res = nil
		}
	}()
	r := core.Explore(prog, s, opt)
	return &r
}

// fineBugs indexes a result's bugs by engine identity.
func fineBugs(res *core.Result) map[BugID]core.Bug {
	out := make(map[BugID]core.Bug, len(res.Bugs))
	for _, b := range res.Bugs {
		out[BugID{b.Kind, b.Message}] = b
	}
	return out
}

// diffBugIDs reports bugs present in exactly one of the two sets.
func (c *checker) diffBugIDs(prop, gotName string, got map[BugID]core.Bug) bool {
	clean := true
	for _, id := range c.truth.SortedBugs() {
		if _, ok := got[id]; !ok {
			c.fail(prop, fmt.Sprintf("%s missed oracle bug [%v]", gotName, id), c.truth.Bugs[id].Witness)
			clean = false
		}
	}
	ids := make([]BugID, 0, len(got))
	for id := range got {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		return ids[i].Kind < ids[j].Kind || (ids[i].Kind == ids[j].Kind && ids[i].Msg < ids[j].Msg)
	})
	for _, id := range ids {
		if _, ok := c.truth.Bugs[id]; !ok {
			c.fail(prop, fmt.Sprintf("%s reported bug [%v] the oracle never saw", gotName, id), got[id].Schedule)
			clean = false
		}
	}
	return clean
}

// checkDFS cross-checks unbounded uncached DFS: it must enumerate exactly
// the oracle's executions — same count, same bug set with the same
// per-defect exposure counts, same reachable-final-state multiset — and
// mark the space exhausted.
func (c *checker) checkDFS() *core.Result {
	const prop = "dfs-vs-oracle"
	var final string
	prog := c.spec.Program(&final)
	finals := map[string]int{}
	opt := c.baseOpts()
	opt.TraceObserver = outcomeFunc(func(_ int, out sched.Outcome) {
		if out.Status == sched.StatusTerminated {
			finals[final]++
		}
	})
	res := c.explore(prog, baseline.DFS{}, opt, prop)
	if res == nil {
		return nil
	}
	if !res.Exhausted {
		c.fail(prop, fmt.Sprintf("DFS did not exhaust within %d executions (oracle needed %d)",
			c.failsafe(), c.truth.Executions), nil)
		return res
	}
	if res.Executions != c.truth.Executions {
		c.fail(prop, fmt.Sprintf("DFS ran %d executions, oracle enumerated %d",
			res.Executions, c.truth.Executions), nil)
	}
	got := fineBugs(res)
	if c.diffBugIDs(prop, "DFS", got) {
		for id, bt := range c.truth.Bugs {
			if g := got[id]; g.Count != bt.Count {
				c.fail(prop, fmt.Sprintf("bug [%v] exposed by %d DFS executions, %d oracle executions",
					id, g.Count, bt.Count), g.Schedule)
			}
		}
	}
	if len(finals) != len(c.truth.Finals) {
		c.fail(prop, fmt.Sprintf("DFS reached %d distinct final states, oracle %d",
			len(finals), len(c.truth.Finals)), nil)
	} else {
		for st, n := range c.truth.Finals {
			if finals[st] != n {
				c.fail(prop, fmt.Sprintf("final state %q reached by %d DFS executions, %d oracle executions",
					st, finals[st], n), nil)
			}
		}
	}
	return res
}

// checkICB cross-checks an unbounded uncached ICB-semantics strategy: the
// oracle's exact bug set, each defect first sighted with its minimal
// preemption count (Theorem: executions are explored in preemption order),
// exhaustion, and a completed bound equal to the deepest preemption count
// any execution needs.
func (c *checker) checkICB(s core.Strategy, prop string) *core.Result {
	// Same program shape as the oracle and DFS (the snapshot reads add
	// fingerprinted steps), so state counts are comparable across all
	// sequential runs.
	var final string
	prog := c.spec.Program(&final)
	res := c.explore(prog, s, c.baseOpts(), prop)
	if res == nil {
		return nil
	}
	if !res.Exhausted {
		c.fail(prop, fmt.Sprintf("%s did not exhaust within %d executions", s.Name(), c.failsafe()), nil)
		return res
	}
	if res.BoundCompleted != c.truth.MaxPreemptions {
		c.fail(prop, fmt.Sprintf("%s exhausted at completed bound %d, oracle max preemptions is %d",
			s.Name(), res.BoundCompleted, c.truth.MaxPreemptions), nil)
	}
	got := fineBugs(res)
	if c.diffBugIDs(prop, s.Name(), got) {
		for id, bt := range c.truth.Bugs {
			if g := got[id]; g.Preemptions != bt.MinPreemptions {
				c.fail(prop, fmt.Sprintf(
					"bug [%v] first sighted by %s with %d preemptions, oracle minimum is %d",
					id, s.Name(), g.Preemptions, bt.MinPreemptions), g.Schedule)
			}
		}
	}
	return res
}

// checkBoundary probes the sharp bound boundary at c* = the global minimal
// preemption count: ICB bounded to c* finds exactly the oracle bugs
// needing at most c* preemptions and reports a minimal one first; bounded
// to c*-1 it finds nothing and still certifies bound c*-1 complete; and
// StopOnFirstBug stops on a minimal bug.
func (c *checker) checkBoundary() {
	const prop = "icb-bound-boundary"
	cs := c.truth.MinPreemptions
	if cs < 0 {
		return // bug-free program: nothing to bound against
	}
	var final string
	prog := c.spec.Program(&final)

	opt := c.baseOpts()
	opt.MaxPreemptions = cs
	if res := c.explore(prog, core.ICB{}, opt, prop); res != nil {
		got := fineBugs(res)
		want := c.truth.BugsWithin(cs)
		if len(got) != len(want) {
			c.fail(prop, fmt.Sprintf("ICB bound %d found %d bugs, oracle has %d with <= %d preemptions",
				cs, len(got), len(want), cs), nil)
		} else {
			for _, id := range want {
				if _, ok := got[id]; !ok {
					c.fail(prop, fmt.Sprintf("ICB bound %d missed bug [%v] (oracle min %d)",
						cs, id, c.truth.Bugs[id].MinPreemptions), c.truth.Bugs[id].Witness)
				}
			}
		}
		if fb := res.FirstBug(); fb == nil {
			c.fail(prop, fmt.Sprintf("ICB bound %d reported no first bug", cs), nil)
		} else if fb.Preemptions != cs {
			c.fail(prop, fmt.Sprintf("ICB's first bug used %d preemptions, program minimum is %d",
				fb.Preemptions, cs), fb.Schedule)
		}
	}

	if cs > 0 {
		opt := c.baseOpts()
		opt.MaxPreemptions = cs - 1
		if res := c.explore(prog, core.ICB{}, opt, prop); res != nil {
			if len(res.Bugs) != 0 {
				c.fail(prop, fmt.Sprintf("ICB bound %d found bug [%v] below the oracle minimum %d",
					cs-1, BugID{res.Bugs[0].Kind, res.Bugs[0].Message}, cs), res.Bugs[0].Schedule)
			}
			if res.BoundCompleted != cs-1 {
				c.fail(prop, fmt.Sprintf("ICB bound %d completed bound %d instead", cs-1, res.BoundCompleted), nil)
			}
		}
	}

	opt = c.baseOpts()
	opt.StopOnFirstBug = true
	if res := c.explore(prog, core.ICB{}, opt, prop); res != nil {
		if fb := res.FirstBug(); fb == nil {
			c.fail(prop, "StopOnFirstBug ICB found no bug on a buggy program", nil)
		} else if fb.Preemptions != cs {
			c.fail(prop, fmt.Sprintf("StopOnFirstBug ICB stopped on a bug with %d preemptions, minimum is %d",
				fb.Preemptions, cs), fb.Schedule)
		}
	}
}

// checkCSB cross-checks unbounded context-switch bounding. CSB revisits
// prefixes heavily, so the check runs only on small schedule spaces; when
// it exhausts, its bug set and state coverage must match DFS's.
func (c *checker) checkCSB(dfsRes *core.Result) {
	const prop = "csb-vs-oracle"
	if c.truth.Executions > csbMaxTruth || dfsRes == nil {
		return
	}
	var final string
	prog := c.spec.Program(&final)
	res := c.explore(prog, core.CSB{}, c.baseOpts(), prop)
	if res == nil {
		return
	}
	if !res.Exhausted {
		c.fail(prop, fmt.Sprintf("CSB did not exhaust within %d executions on a %d-execution program",
			c.failsafe(), c.truth.Executions), nil)
		return
	}
	c.diffBugIDs(prop, "CSB", fineBugs(res))
	if res.States != dfsRes.States || res.ExecutionClasses != dfsRes.ExecutionClasses {
		c.fail(prop, fmt.Sprintf("exhaustive CSB visited %d states / %d classes, exhaustive DFS %d / %d",
			res.States, res.ExecutionClasses, dfsRes.States, dfsRes.ExecutionClasses), nil)
	}
}

// checkParallel cross-checks the work-stealing ParallelICB at 2 and 4
// workers against both the brute-force oracle and one worker (the ICB
// strategy): identical execution counts, coverage,
// exhaustion and fine-grained bug sets regardless of worker count, and —
// against the oracle — the exact bug set with each defect first sighted at
// its true minimal preemption count.
func (c *checker) checkParallel() {
	const prop = "parallel-vs-sequential"
	prog := c.spec.Program(nil) // workers run the program concurrently: no shared sink cell
	seq := c.explore(prog, core.ParallelICB{Workers: 1}, c.baseOpts(), prop)
	if seq == nil {
		return
	}
	seqBugs := fineBugs(seq)
	for _, w := range []int{2, 4} {
		res := c.explore(prog, core.ParallelICB{Workers: w}, c.baseOpts(), prop)
		if res == nil {
			continue
		}
		name := fmt.Sprintf("%d-worker ICB", w)
		// Against the oracle: the stealing drain must expose exactly the
		// true bug set, each defect first sighted minimally (the softened
		// barrier holds ahead-of-bound sightings back, so Theorem 1's
		// guarantee survives the overlap).
		if got := fineBugs(res); c.diffBugIDs("parallel-vs-oracle", name, got) {
			for id, bt := range c.truth.Bugs {
				if g := got[id]; g.Preemptions != bt.MinPreemptions {
					c.fail("parallel-vs-oracle", fmt.Sprintf(
						"bug [%v] first sighted by %s with %d preemptions, oracle minimum is %d",
						id, name, g.Preemptions, bt.MinPreemptions), g.Schedule)
				}
			}
		}
		if res.Executions != seq.Executions || res.States != seq.States ||
			res.ExecutionClasses != seq.ExecutionClasses ||
			res.BoundCompleted != seq.BoundCompleted || res.Exhausted != seq.Exhausted {
			c.fail(prop, fmt.Sprintf(
				"%s ran (execs=%d states=%d classes=%d bound=%d exhausted=%v), sequential (execs=%d states=%d classes=%d bound=%d exhausted=%v)",
				name, res.Executions, res.States, res.ExecutionClasses, res.BoundCompleted, res.Exhausted,
				seq.Executions, seq.States, seq.ExecutionClasses, seq.BoundCompleted, seq.Exhausted), nil)
		}
		got := fineBugs(res)
		if len(got) != len(seqBugs) {
			c.fail(prop, fmt.Sprintf("%s found %d distinct bugs, sequential found %d",
				name, len(got), len(seqBugs)), nil)
			continue
		}
		for id, sb := range seqBugs {
			g, ok := got[id]
			if !ok {
				c.fail(prop, fmt.Sprintf("%s missed bug [%v]", name, id), sb.Schedule)
				continue
			}
			if g.Preemptions != sb.Preemptions || g.Count != sb.Count {
				c.fail(prop, fmt.Sprintf(
					"%s saw bug [%v] with preemptions=%d count=%d, sequential preemptions=%d count=%d",
					name, id, g.Preemptions, g.Count, sb.Preemptions, sb.Count), g.Schedule)
			}
		}
	}
}

// checkCache cross-checks cached ICB against the uncached run: the
// work-item table may only prune redundant executions, never change the
// visited state set, execution classes, completed bound, exhaustion, or
// the non-race defect set (race *messages* may legitimately differ, since
// pruning changes which exposing execution is seen first, but racy-ness
// must be preserved).
func (c *checker) checkCache(icbRes *core.Result) {
	const prop = "cache-transparency"
	if icbRes == nil || !icbRes.Exhausted {
		return
	}
	var final string
	prog := c.spec.Program(&final) // same shape as the uncached reference run
	opt := c.baseOpts()
	opt.StateCache = true
	res := c.explore(prog, core.ICB{}, opt, prop)
	if res == nil {
		return
	}
	// The cache cuts subtrees rooted at already-visited states, so the
	// cached search may exhaust at a lower completed bound (the deeper
	// work items are never enqueued); it must never exhaust later.
	if res.States != icbRes.States || res.ExecutionClasses != icbRes.ExecutionClasses ||
		res.BoundCompleted > icbRes.BoundCompleted || !res.Exhausted {
		c.fail(prop, fmt.Sprintf(
			"cached ICB (states=%d classes=%d bound=%d exhausted=%v) differs from uncached (states=%d classes=%d bound=%d exhausted=true)",
			res.States, res.ExecutionClasses, res.BoundCompleted, res.Exhausted,
			icbRes.States, icbRes.ExecutionClasses, icbRes.BoundCompleted), nil)
	}
	if res.Executions > icbRes.Executions {
		c.fail(prop, fmt.Sprintf("cached ICB ran %d executions, more than the uncached %d",
			res.Executions, icbRes.Executions), nil)
	}
	cached, uncached := fineBugs(res), fineBugs(icbRes)
	cachedRacy, uncachedRacy := false, false
	for id, b := range cached {
		if id.Kind == core.BugRace {
			cachedRacy = true
			continue
		}
		u, ok := uncached[id]
		if !ok {
			c.fail(prop, fmt.Sprintf("cached ICB reported bug [%v] the uncached run never saw", id), b.Schedule)
		} else if b.Preemptions != u.Preemptions {
			c.fail(prop, fmt.Sprintf("cached ICB first sighted bug [%v] at %d preemptions, uncached at %d",
				id, b.Preemptions, u.Preemptions), b.Schedule)
		}
	}
	for id, u := range uncached {
		if id.Kind == core.BugRace {
			uncachedRacy = true
			continue
		}
		if _, ok := cached[id]; !ok {
			c.fail(prop, fmt.Sprintf("cached ICB missed bug [%v]", id), u.Schedule)
		}
	}
	if cachedRacy != uncachedRacy {
		c.fail(prop, fmt.Sprintf("cached ICB racy=%v, uncached racy=%v", cachedRacy, uncachedRacy), nil)
	}
}

// checkBPOR cross-checks bounded partial-order reduction against the plain
// exhaustive uncached ICB run. The reduction claims to preserve everything
// ICB guarantees while running fewer executions, so the checks are strict:
// identical bug set (races included — races are determined by the
// Mazurkiewicz class, which the reduction must cover) with identical
// first-sighting preemption counts, identical execution-class count,
// exhaustion, and never more executions or states. The sharp bound
// boundary, the work-item cache composition and the parallel driver are
// probed separately.
func (c *checker) checkBPOR(icbRes *core.Result) {
	const prop = "bpor-vs-plain"
	if icbRes == nil || !icbRes.Exhausted {
		return
	}
	var final string
	prog := c.spec.Program(&final) // same shape as the plain reference run
	opt := c.baseOpts()
	opt.BPOR = true
	res := c.explore(prog, core.ICB{}, opt, prop)
	if res == nil {
		return
	}
	if !res.BPOR {
		c.fail(prop, "Result.BPOR not set on a reduction run", nil)
	}
	plain := fineBugs(icbRes)
	c.compareReduced(prop, "BPOR ICB", res, icbRes, plain, true)

	// The sharp boundary survives the reduction: bounded to the global
	// minimal preemption count c* the first sighting is still minimal;
	// bounded to c*-1 the search still finds nothing and still certifies
	// the bound complete (a reduction that starves an intermediate bound's
	// queue would exhaust early and betray lost coverage).
	if cs := c.truth.MinPreemptions; cs >= 0 {
		bopt := c.baseOpts()
		bopt.BPOR = true
		bopt.MaxPreemptions = cs
		if bres := c.explore(prog, core.ICB{}, bopt, prop); bres != nil {
			if fb := bres.FirstBug(); fb == nil {
				c.fail(prop, fmt.Sprintf("BPOR ICB bound %d found no bug, oracle minimum is %d", cs, cs), nil)
			} else if fb.Preemptions != cs {
				c.fail(prop, fmt.Sprintf("BPOR ICB's first bug used %d preemptions, program minimum is %d",
					fb.Preemptions, cs), fb.Schedule)
			}
		}
		if cs > 0 {
			bopt.MaxPreemptions = cs - 1
			if bres := c.explore(prog, core.ICB{}, bopt, prop); bres != nil {
				if len(bres.Bugs) != 0 {
					c.fail(prop, fmt.Sprintf("BPOR ICB bound %d found bug [%v] below the oracle minimum %d",
						cs-1, BugID{bres.Bugs[0].Kind, bres.Bugs[0].Message}, cs), bres.Bugs[0].Schedule)
				}
				if bres.BoundCompleted != cs-1 {
					c.fail(prop, fmt.Sprintf("BPOR ICB bound %d completed bound %d instead",
						cs-1, bres.BoundCompleted), nil)
				}
			}
		}
	}

	// Composition with the work-item cache: pruning on top of pruning must
	// still cover every class. Cache cuts change which exposing execution
	// runs first, so per-bug first sightings are not compared here (the
	// plain cache-transparency check owns that caveat).
	copt := c.baseOpts()
	copt.BPOR = true
	copt.StateCache = true
	if cres := c.explore(prog, core.ICB{}, copt, prop); cres != nil {
		c.compareReduced(prop, "cached BPOR ICB", cres, icbRes, plain, false)
	}

	// Composition with the stealing parallel driver at 2 and 4 workers:
	// the shared registration table makes execution counts
	// interleaving-dependent, but the deterministic outcomes — bug set,
	// sightings, classes, exhaustion — must hold at any worker count, and
	// the bug set must still be exactly the oracle's.
	for _, w := range []int{2, 4} {
		popt := c.baseOpts()
		popt.BPOR = true
		pres := c.explore(prog, core.ParallelICB{Workers: w}, popt, prop)
		if pres == nil {
			continue
		}
		name := fmt.Sprintf("%d-worker BPOR ICB", w)
		c.compareReduced(prop, name, pres, icbRes, plain, true)
		c.diffBugIDs("parallel-bpor-vs-oracle", name, fineBugs(pres))
	}
}

// compareReduced holds one reduced run against the plain exhaustive ICB
// reference: equal classes, equal bug set, exhaustion, and at most the
// plain run's executions and states. sightings additionally compares each
// bug's first-sighting preemption count.
func (c *checker) compareReduced(prop, name string, res, icbRes *core.Result, plain map[BugID]core.Bug, sightings bool) {
	if !res.Exhausted {
		c.fail(prop, fmt.Sprintf("%s did not exhaust within %d executions", name, c.failsafe()), nil)
		return
	}
	if res.ExecutionClasses != icbRes.ExecutionClasses {
		c.fail(prop, fmt.Sprintf("%s covered %d execution classes, plain ICB %d",
			name, res.ExecutionClasses, icbRes.ExecutionClasses), nil)
	}
	if res.Executions > icbRes.Executions {
		c.fail(prop, fmt.Sprintf("%s ran %d executions, more than plain ICB's %d",
			name, res.Executions, icbRes.Executions), nil)
	}
	if res.States > icbRes.States {
		c.fail(prop, fmt.Sprintf("%s visited %d states, more than plain ICB's %d",
			name, res.States, icbRes.States), nil)
	}
	if res.BoundCompleted > icbRes.BoundCompleted {
		c.fail(prop, fmt.Sprintf("%s completed bound %d, beyond plain ICB's %d",
			name, res.BoundCompleted, icbRes.BoundCompleted), nil)
	}
	got := fineBugs(res)
	for id, b := range got {
		p, ok := plain[id]
		if !ok {
			c.fail(prop, fmt.Sprintf("%s reported bug [%v] plain ICB never saw", name, id), b.Schedule)
			continue
		}
		if sightings && b.Preemptions != p.Preemptions {
			c.fail(prop, fmt.Sprintf("%s first sighted bug [%v] at %d preemptions, plain ICB at %d",
				name, id, b.Preemptions, p.Preemptions), b.Schedule)
		}
	}
	for id, p := range plain {
		if _, ok := got[id]; !ok {
			c.fail(prop, fmt.Sprintf("%s missed bug [%v]", name, id), p.Schedule)
		}
	}
}

// checkResume cross-checks interrupt-and-resume, plain and with BPOR and
// the work-item table, at one and two workers (see resumeLeg).
func (c *checker) checkResume() {
	for _, reduced := range []bool{false, true} {
		opt := c.baseOpts()
		opt.BPOR, opt.StateCache = reduced, reduced
		c.resumeLeg(core.ICB{}, opt, true)
		c.resumeLeg(core.ParallelICB{Workers: 2}, opt, false)
	}
}

// resumeLeg stops the unbounded search s after a seed-derived number of
// executions n (1 <= n < the uninterrupted count), round-trips its final
// snapshot through JSON and resumes it. The two lives together must
// reproduce the uninterrupted run: exactly, durations aside, when exact
// (one worker); otherwise in every fact that does not depend on the order
// the workers ran executions in.
func (c *checker) resumeLeg(s core.Strategy, opt core.Options, exact bool) {
	const prop = "resume"
	name := s.Name()
	if opt.BPOR {
		name += " (bpor+cache)"
	}
	prog := c.spec.Program(nil) // workers run the program concurrently: no shared sink cell
	ref := c.explore(prog, s, opt, prop)
	if ref == nil || !ref.Exhausted || ref.Executions < 2 {
		return
	}
	n := 1 + int(splitmix(uint64(c.spec.Seed))%uint64(ref.Executions-1))
	stop := new(atomic.Bool)
	snap := &finalSnapshot{}
	iopt := opt
	iopt.Stop = stop
	iopt.Sink = &stopAfter{n: int64(n), stop: stop}
	iopt.Checkpoint = snap
	if c.explore(prog, s, iopt, prop) == nil {
		return
	}
	var st core.SearchState
	if err := json.Unmarshal(snap.js, &st); err != nil {
		c.fail(prop, fmt.Sprintf("%s stopped after %d executions left no readable snapshot: %v", name, n, err), nil)
		return
	}
	ropt := opt
	ropt.Resume = &st
	if err := core.ValidateResume(&st, ropt); err != nil {
		c.fail(prop, fmt.Sprintf("%s: snapshot after %d executions rejected: %v", name, n, err), nil)
		return
	}
	got := c.explore(prog, s, ropt, prop)
	if got == nil {
		return
	}
	if exact {
		if diff := resultDiff(zeroDurations(*got), zeroDurations(*ref)); diff != "" {
			c.fail(prop, fmt.Sprintf("%s resumed after %d executions differs from the uninterrupted run: %s", name, n, diff), nil)
		}
		return
	}
	// With the work-item table and BPOR on, which equivalent execution
	// claims an entry and the registration order vary with the workers'
	// interleaving, and so do execution and state counts, the completed
	// bound and the race a racy program reports. The plain drain's counts
	// are order-independent (DESIGN.md §10).
	facts := func(r *core.Result) string {
		var bugs []string
		racy := false
		for _, b := range r.Bugs {
			if opt.StateCache && b.Kind == core.BugRace {
				racy = true
				continue
			}
			bugs = append(bugs, fmt.Sprintf("%v|%s|p=%d", b.Kind, b.Message, b.Preemptions))
		}
		sort.Strings(bugs)
		f := fmt.Sprintf("classes=%d exhausted=%v racy=%v bugs=%q", r.ExecutionClasses, r.Exhausted, racy, bugs)
		if !opt.StateCache {
			f += fmt.Sprintf(" executions=%d states=%d bound=%d", r.Executions, r.States, r.BoundCompleted)
		}
		return f
	}
	if a, b := facts(got), facts(ref); a != b {
		c.fail(prop, fmt.Sprintf("%s resumed after %d executions: %s, uninterrupted %s", name, n, a, b), nil)
	}
}

// zeroDurations clears a Result's wall-clock fields, the only ones a
// resumed search may legitimately differ in.
func zeroDurations(r core.Result) core.Result {
	r.Duration = 0
	r.BoundStats = append([]core.BoundStat(nil), r.BoundStats...)
	for i := range r.BoundStats {
		r.BoundStats[i].Duration = 0
	}
	return r
}

// resultDiff names the Result fields in which got and want differ, with
// both values, or returns "" when they are identical.
func resultDiff(got, want core.Result) string {
	var diffs []string
	g, w := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < g.NumField(); i++ {
		if !reflect.DeepEqual(g.Field(i).Interface(), w.Field(i).Interface()) {
			diffs = append(diffs, fmt.Sprintf("%s %+v, want %+v", g.Type().Field(i).Name, g.Field(i), w.Field(i)))
		}
	}
	return strings.Join(diffs, "; ")
}

// splitmix is the SplitMix64 finalizer: it spreads consecutive seeds over
// the stop points of a resume leg.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// stopAfter raises the search's stop flag once n executions have run.
type stopAfter struct {
	obs.Nop
	n    int64
	seen atomic.Int64
	stop *atomic.Bool
}

// ExecutionDone implements obs.Sink; parallel workers call it concurrently.
func (s *stopAfter) ExecutionDone(obs.ExecutionEvent) {
	if s.seen.Add(1) == s.n {
		s.stop.Store(true)
	}
}

// finalSnapshot keeps the JSON of the last final snapshot a search takes.
type finalSnapshot struct{ js []byte }

// Due implements core.CheckpointSink: no periodic snapshots.
func (f *finalSnapshot) Due() bool { return false }

// Capture implements core.CheckpointSink.
func (f *finalSnapshot) Capture(st *core.SearchState, final bool) {
	if !final {
		return
	}
	js, err := json.Marshal(st)
	if err != nil {
		panic(err)
	}
	f.js = js
}

// checkReplayAndMinimize verifies that every recorded buggy schedule
// replays to the same defect with the same preemption count, and that
// schedule minimization preserves failure while never growing the
// schedule.
func (c *checker) checkReplayAndMinimize(icbRes *core.Result) {
	const prop = "replay"
	if icbRes == nil {
		return
	}
	var final string
	prog := c.spec.Program(&final) // schedules were recorded on this shape
	opt := c.baseOpts()
	for i := range icbRes.Bugs {
		b := &icbRes.Bugs[i]
		id := BugID{b.Kind, b.Message}
		out, bugs := core.ReplayBugs(prog, b.Schedule, opt)
		found := false
		for _, rb := range bugs {
			if rb.Kind == b.Kind && rb.Message == b.Message {
				found = true
			}
		}
		if !found {
			c.fail(prop, fmt.Sprintf("recorded schedule for bug [%v] replayed to status %v with %d bugs, not the recorded defect",
				id, out.Status, len(bugs)), b.Schedule)
			continue
		}
		if out.Preemptions != b.Preemptions {
			c.fail(prop, fmt.Sprintf("replay of bug [%v] used %d preemptions, recording says %d",
				id, out.Preemptions, b.Preemptions), b.Schedule)
		}
	}

	// Minimization check on the first status-visible bug (races leave the
	// outcome status clean, so MinimizeSchedule intentionally declines
	// them).
	for i := range icbRes.Bugs {
		b := &icbRes.Bugs[i]
		if b.Kind == core.BugRace {
			continue
		}
		min := core.MinimizeSchedule(prog, b.Schedule, opt)
		if len(min) > len(b.Schedule) {
			c.fail("minimize", fmt.Sprintf("minimized schedule for bug [%v] grew from %d to %d decisions",
				BugID{b.Kind, b.Message}, len(b.Schedule), len(min)), min)
			break
		}
		if _, bugs := core.ReplayBugs(prog, min, opt); len(bugs) == 0 {
			c.fail("minimize", fmt.Sprintf("minimized schedule for bug [%v] no longer fails",
				BugID{b.Kind, b.Message}), min)
		}
		break
	}
}

// outcomeFunc adapts a function to core.OutcomeObserver.
type outcomeFunc func(execution int, out sched.Outcome)

// ObserveOutcome implements core.OutcomeObserver.
func (f outcomeFunc) ObserveOutcome(execution int, out sched.Outcome) { f(execution, out) }
