package core

import (
	"fmt"
	"time"

	"icb/internal/sched"
)

// ICB is the iterative context-bounding strategy of Algorithm 1: it
// explores every execution with c preemptions before any execution with
// c+1 preemptions. Work items are replay schedules; the recursive Search of
// the paper becomes an explicit local stack (its recursion along the
// running thread is the execution itself; its branching at blocking points
// is the stack, the bottom of the bound's work-stealing deque).
//
// Guarantees (paper §1, §3):
//   - the first bug found is exposed by an execution with the minimum
//     number of preemptions over the whole program;
//   - when bound c completes, every execution with at most c preemptions
//     has been explored, so any remaining bug needs ≥ c+1 preemptions.
type ICB struct{}

// Name implements Strategy.
func (ICB) Name() string { return "icb" }

// Explore implements Strategy: the one-worker instance of the search loop
// (see ParallelICB), which runs on the caller's goroutine and explores a
// bound's seeds oldest first, each seed's subtree last in, first out.
func (ICB) Explore(e *Engine) { newSearch(e, 1, nil, false).run(e) }

// newICBController builds the controller that replays one work item at the
// given bound and routes the alternatives it generates: onLocal receives
// same-bound items, onPreempt items costing one more unit of the bound.
// csb selects context-switch bounding's cost rule; it ignores the
// work-item table and BPOR.
func newICBController(e *Engine, path sched.Schedule, bound int, csb bool, onLocal, onPreempt func(sched.Schedule)) *icbController {
	ctrl := &icbController{
		path: path,
		// The extension phase appends one decision per scheduling point
		// past the replayed prefix; starting at the prefix length plus a
		// small headroom avoids the append-regrowth copies that
		// otherwise dominate the controller's allocations.
		cur:       make(sched.Schedule, 0, len(path)+16),
		csb:       csb,
		onPreempt: onPreempt,
		onLocal:   onLocal,
	}
	if !csb {
		ctrl.cache = e.Cache()
		if e.bpor != nil {
			ctrl.bpor = e.bporExec(bound)
		}
	}
	return ctrl
}

// finishItem applies the post-run bookkeeping one completed (not stopped-
// before-running) work item needs: the BPOR finishing step, and the
// invariant that an execution drained at bound c spent exactly c units of
// it (preemptions, or under CSB context switches).
func finishItem(ctrl *icbController, out sched.Outcome, bound int) {
	if ctrl.bpor != nil {
		// Even an execution cut by the work-item cache (StatusStopped) has
		// work here: its subtree was already explored, but the replayed
		// prefix's scans may have queued backtracking items it does not
		// cover.
		ctrl.bporFinish(out.Status)
	}
	if out.Status == sched.StatusStopped {
		return
	}
	if ctrl.csb {
		if out.ContextSwitches != bound {
			panic(fmt.Sprintf("csb: execution at bound %d had %d switches", bound, out.ContextSwitches))
		}
		return
	}
	if out.Preemptions != bound {
		// Under BPOR a backtracking work item can cost fewer preemptions
		// than the bound being drained (reversing a race may remove the
		// preemption the original path spent); plain ICB generates each
		// bound's work at exactly that bound.
		if ctrl.bpor == nil || out.Preemptions > bound {
			panic(fmt.Sprintf("icb: execution at bound %d had %d preemptions (schedule %v)",
				bound, out.Preemptions, out.Decisions))
		}
	}
}

// icbController replays a schedule prefix and then follows the
// no-new-preemption policy: continue the running thread while it is
// enabled (recording the preempting alternatives), branch freely when it
// blocks or exits (recording the local alternatives).
type icbController struct {
	path  sched.Schedule
	pos   int
	cur   sched.Schedule
	cache *Cache
	// csb charges every context switch, not only preempting ones (CSB):
	// when the running thread blocks or exits, every continuation costs
	// one and the execution ends here.
	csb bool
	// preempts counts the preempting context switches along cur, including
	// the replayed prefix: the work-item table is keyed by (state, decision,
	// preemptions spent) so that paths with different remaining budgets are
	// never merged (see the Cache soundness note).
	preempts int

	onPreempt func(sched.Schedule)
	onLocal   func(sched.Schedule)

	// bpor, when non-nil, activates bounded partial-order reduction for
	// this execution: sleep sets and targeted backtracking replace the
	// blind expansion of the extension phase (see bpor.go).
	bpor *bporExec

	// profClock, set by a profiling engine before the run, arms the
	// replay/explore split: replayDoneAt is stamped once, at the first
	// decision past the replayed prefix (zero when the execution never
	// left it). One boolean check per decision when profiling is off.
	profClock    bool
	replayDoneAt time.Time
}

// markExplore stamps the replay→explore transition on the first
// extension-phase decision of a profiled execution.
func (c *icbController) markExplore() {
	if c.profClock && c.replayDoneAt.IsZero() {
		c.replayDoneAt = time.Now()
	}
}

// take registers the decision about to be taken at p spent preemptions; a
// false result cuts the execution (the Algorithm 1 table guard).
func (c *icbController) take(d sched.Decision, p int) bool {
	return c.cache == nil || c.cache.TryTake(d, p)
}

// push reports whether an alternative at p spent preemptions should be
// enqueued (skipping duplicates already registered in the table).
func (c *icbController) push(d sched.Decision, p int) bool {
	return c.cache == nil || c.cache.TryTake(d, p)
}

// PickThread implements sched.Controller.
func (c *icbController) PickThread(info sched.PickInfo) (sched.TID, bool) {
	if c.pos < len(c.path) {
		d := c.path[c.pos]
		c.pos++
		if d.Kind != sched.DecisionThread {
			panic(&sched.ReplayError{Pos: c.pos - 1, Want: d, Got: "a scheduling point"})
		}
		if !info.IsEnabled(d.Thread) {
			panic(&sched.ReplayError{Pos: c.pos - 1, Want: d, Got: fmt.Sprintf("enabled set %v", info.Enabled)})
		}
		if c.bpor != nil {
			// Before the preemption increment: recorded point costs are the
			// preemptions spent before this decision.
			c.bporReplayThread(info, d.Thread)
		}
		if info.PrevEnabled && d.Thread != info.Prev {
			c.preempts++ // replayed preempting switch (Appendix A)
		}
		c.cur = append(c.cur, d)
		if c.bpor != nil {
			c.bpor.note(d)
		}
		return d.Thread, true
	}
	c.markExplore()
	if c.bpor != nil {
		return c.bporExtendThread(info)
	}
	if info.PrevEnabled {
		// Lines 26–32 of Algorithm 1: the running thread continues;
		// scheduling any other enabled thread costs a preemption and is
		// deferred to the next bound.
		if !c.take(sched.ThreadDecision(info.Prev), c.preempts) {
			return sched.NoTID, false
		}
		for _, u := range info.Enabled {
			if u != info.Prev && c.push(sched.ThreadDecision(u), c.preempts+1) {
				c.onPreempt(c.cur.Extend(sched.ThreadDecision(u)))
			}
		}
		c.cur = append(c.cur, sched.ThreadDecision(info.Prev))
		return info.Prev, true
	}
	if c.csb && info.Prev != sched.NoTID {
		for _, u := range info.Enabled {
			c.onPreempt(c.cur.Extend(sched.ThreadDecision(u)))
		}
		return sched.NoTID, false
	}
	// Lines 33–37: the running thread yielded (blocked or exited); all
	// enabled threads are explored within the current bound. The first
	// pick of an execution switches from no thread, so it is free.
	pick := info.Enabled[0]
	if !c.take(sched.ThreadDecision(pick), c.preempts) {
		return sched.NoTID, false
	}
	for _, u := range info.Enabled[1:] {
		if c.push(sched.ThreadDecision(u), c.preempts) {
			c.onLocal(c.cur.Extend(sched.ThreadDecision(u)))
		}
	}
	c.cur = append(c.cur, sched.ThreadDecision(pick))
	return pick, true
}

// PickData implements sched.Controller: data choices branch within the
// current bound (they are not context switches).
func (c *icbController) PickData(t sched.TID, n int) int {
	if c.pos < len(c.path) {
		d := c.path[c.pos]
		c.pos++
		if d.Kind != sched.DecisionData || d.Data < 0 || d.Data >= n {
			panic(&sched.ReplayError{Pos: c.pos - 1, Want: d, Got: fmt.Sprintf("a data choice over %d values", n)})
		}
		c.cur = append(c.cur, d)
		if c.bpor != nil {
			c.bpor.note(d)
		}
		return d.Data
	}
	c.markExplore()
	// A choose point in the extension phase always follows a freshly taken
	// thread decision, so registering value 0 cannot fail; register it so
	// other paths reaching an equivalent state are cut at their preceding
	// thread pick.
	c.take(sched.DataDecision(0), c.preempts)
	for v := 1; v < n; v++ {
		if c.push(sched.DataDecision(v), c.preempts) {
			c.onLocal(c.cur.Extend(sched.DataDecision(v)))
		}
	}
	c.cur = append(c.cur, sched.DataDecision(0))
	if c.bpor != nil {
		// Data decisions extend the registration-key prefix (they are part
		// of the decision sequence) but are never scheduling points of the
		// reduction: no bporPoint, no sleep interaction.
		c.bpor.note(sched.DataDecision(0))
	}
	return 0
}
