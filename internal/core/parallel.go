package core

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"icb/internal/hb"
	"icb/internal/obs"
	"icb/internal/obs/prof"
	"icb/internal/sched"
)

// ParallelICB is the multi-core realization of Algorithm 1 with per-worker
// Chase–Lev work-stealing deques and a softened bound barrier. The
// stateless design makes this sound — every work item is a replay schedule
// restartable from the initial state, so items within one bound are
// independent and can be drained in any order, including concurrently.
//
// Scheduling: each worker owns one deque per live bound and drains its own
// bottom LIFO (the sequential search's local-stack order), stealing from
// the top of a sibling's deque when its own runs dry — a steal takes the
// oldest item, the root of the largest remaining subtree. Work-item
// granularity is a single execution, not a whole seed subtree, so load
// imbalance self-corrects at every push.
//
// The softened barrier: a worker that finds nothing at the current bound c
// — its deque empty and nothing to steal — starts replaying bound-(c+1)
// seeds early instead of blocking. Up to three bounds are live at once
// (c's stragglers, c+1 run early, and the c+2 items those early runs
// generate). This preserves the two ICB guarantees:
//
//   - minimal-first sightings: a bug sighted by an early bound-(c+1)
//     execution is held back (Engine.recordBugs) and filed only when every
//     bound-c execution has globally retired — so the reported minimal
//     preemption counts and the bound ordering of first sightings are
//     exactly the sequential search's (at bound granularity: several
//     same-bound bugs may race to be "first", as in any parallel drain);
//   - Theorem 1's coverage meaning: Result.BoundCompleted advances to c
//     only at c's retirement, when every execution with at most c
//     preemptions has run. Early executions never run past the preemption
//     budget (MaxPreemptions), so the explored execution set is identical
//     to the sequential search's.
//
// What is deterministic across worker counts (full drain, no caching): the
// bug set with per-bug minimal preemption counts and sighting counts, the
// bound-ordered bug list, BoundCompleted, Exhausted, total executions, the
// distinct-state and execution-class counts, and the per-bound execution
// attribution in BoundCurve/BoundStats. What is intentionally
// nondeterministic: execution order, the coverage growth curve, per-bound
// state-count samples (early executions bleed into them), which equivalent
// execution claims a work item under state caching (and hence cache
// hit/miss splits and execution counts under caching), and which of
// several same-bound bugs is reported first.
//
// Workers <= 0 selects GOMAXPROCS. Workers == 1 delegates to the exact
// sequential ICB code path, byte-identical in behavior and Result.
type ParallelICB struct {
	// Workers is the worker-engine count (<= 0: GOMAXPROCS).
	Workers int

	// distribute, when non-nil, overrides the round-robin placement of
	// initial/restored seed i across workers — a test hook for forcing
	// pathological imbalance (steal-storm tests seed everything on one
	// worker). Items generated during the run always land on the
	// generating worker's own deque; stealing corrects the imbalance.
	distribute func(i, workers int) int
}

// NumWorkers returns the resolved worker count.
func (p ParallelICB) NumWorkers() int {
	if p.Workers > 0 {
		return p.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Name implements Strategy. The sequential degenerate case keeps the
// canonical "icb" name so workers=1 results are indistinguishable from
// the sequential strategy's.
func (p ParallelICB) Name() string {
	if w := p.NumWorkers(); w > 1 {
		return fmt.Sprintf("icb-w%d", w)
	}
	return "icb"
}

// parSearch is the shared state of one parallel exploration: the
// concurrent coverage sets, the shared work-item table, the stop flag and
// the global execution counter, the worker engines, and the work-stealing
// scheduler state (deque ring, per-bound counters, safepoint coordination).
type parSearch struct {
	// stop is the search-wide abort flag shared by every worker: the
	// parent's external flag (Options.Stop, signal handling) when one was
	// provided, a private one otherwise.
	stop    *atomic.Bool
	execs   atomic.Int64
	states  *hb.ShardedStateSet
	classes *hb.ShardedStateSet
	table   *sharedTable // nil when state caching is off
	workers []*Engine
	w       int
	met     *obs.Metrics
	prof    *prof.Profiler

	// Per-worker merge cursors: how many Result.Curve points and how much
	// of each Bug's Count have already been folded into the parent at
	// previous safepoints.
	curveDone []int
	bugsDone  [][]int

	// baseHits/baseMisses are the work-item-table counters restored from a
	// resume snapshot; the safepoint merge adds the workers' per-life
	// counts on top (worker counters start at zero every process life).
	baseHits   int
	baseMisses int

	// --- work-stealing scheduler state ---

	// cur is the bound currently retiring. Written by the parent only at
	// safepoints (all workers parked or exited, ordered through mu), read
	// freely by running workers in between.
	cur      int
	maxBound int
	// dq[b%3][wi] is worker wi's deque for bound b: three slots cover the
	// live window {cur, cur+1, cur+2} (the softened barrier never lets a
	// worker run more than one bound ahead, and running cur+1 generates at
	// most cur+2). A slot is recycled for bound c+3 at the promotion to
	// c+1, when bound c is fully retired and its slot provably empty.
	dq [3][]*wsDeque
	// pend[b%3] counts bound b's unretired work items, including the ones
	// in flight; a worker pushes an item's children before decrementing
	// its own pend slot, so a decrement to zero at the current bound is
	// exactly its retirement trigger. created[b%3] counts items ever
	// created for bound b (zero means the bound does not exist and the
	// space is exhausted); doneExecs[b%3] counts executions attributed to
	// bound b, which rebuilds the deterministic per-bound execution
	// numbers in BoundCurve/BoundStats that the shared execution counter
	// alone cannot provide once early executions interleave.
	pend, created, doneExecs [3]atomic.Int64
	// cumAttr is the cumulative execution count attributed to retired
	// bounds (parent-only, updated at safepoints).
	cumAttr int

	// held pools early bug sightings drained from the workers, waiting for
	// their bound to retire (parent-only; workers buffer their own in
	// Engine.held until the next safepoint).
	held []HeldBug

	// Safepoint and idle coordination. parkReq asks every worker to park
	// at its next execution boundary; retireReq tells the parent a current
	// bound hit pend==0; shutdown ends the search. gen increments whenever
	// new work may have appeared, so idle workers never miss a wakeup:
	// they read gen, advertise idleness, re-sweep every deque, and only
	// then wait for gen to move (a pusher that saw idle>0 bumps gen under
	// mu; one that did not is ordered before the re-sweep).
	mu        sync.Mutex
	cond      *sync.Cond
	gen       uint64
	idle      atomic.Int64
	parkReq   atomic.Bool
	shutdown  atomic.Bool
	retireReq bool
	parked    int
	exited    int
	wg        sync.WaitGroup
}

// newParSearch converts the parent engine to shared concurrent coverage
// structures and builds w worker engines around them. A parent restored
// from a resume snapshot (NewEngine imported it into the sequential
// structures) has its coverage sets, work-item table and execution count
// migrated into the shared concurrent ones.
func newParSearch(parent *Engine, w int) *parSearch {
	ps := &parSearch{
		stop:      parent.stop,
		states:    hb.NewShardedStateSet(),
		classes:   hb.NewShardedStateSet(),
		curveDone: make([]int, w),
		bugsDone:  make([][]int, w),
		w:         w,
		met:       parent.met,
		prof:      parent.prof,
		maxBound:  parent.opt.MaxPreemptions,
	}
	ps.cond = sync.NewCond(&ps.mu)
	for s := range ps.dq {
		ps.dq[s] = make([]*wsDeque, w)
		for i := range ps.dq[s] {
			ps.dq[s][i] = newWSDeque()
		}
	}
	if ps.stop == nil {
		ps.stop = new(atomic.Bool)
	}
	for _, s := range parent.states.Elems() {
		ps.states.Add(s)
	}
	for _, s := range parent.classes.Elems() {
		ps.classes.Add(s)
	}
	ps.execs.Store(int64(parent.res.Executions))
	// The parent runs no executions itself; it reads the shared sets at
	// safepoints so coverage counters in bound events and BoundStats
	// reflect all workers.
	parent.states = ps.states
	parent.classes = ps.classes
	if parent.opt.StateCache {
		ps.table = newSharedTable()
		for k := range parent.cache.table {
			ps.table.tryInsert(k, nil)
		}
		ps.baseHits = parent.cache.hits
		ps.baseMisses = parent.cache.misses
	}
	for i := 0; i < w; i++ {
		ps.workers = append(ps.workers, newWorkerEngine(parent, i, ps))
	}
	return ps
}

// newWorkerEngine builds one worker: a full Engine with private
// fingerprinter, race detector, observer slice and statistics, wired to
// the search-wide shared structures. Telemetry objects (sink, metrics,
// estimator, coverage recorder, trace observer) are shared as-is — every
// implementation in package obs serializes internally.
func newWorkerEngine(parent *Engine, worker int, ps *parSearch) *Engine {
	e := &Engine{
		prog:        parent.prog,
		opt:         parent.opt,
		states:      ps.states,
		classes:     ps.classes,
		sink:        parent.sink,
		met:         parent.met,
		est:         parent.est,
		curBound:    -1,
		worker:      worker,
		stop:        ps.stop,
		sharedExecs: &ps.execs,
		prof:        parent.prof,
		// The BPOR registration table is search-global like the work-item
		// table: workers share the parent's (its own mutex serializes them).
		// Registration order then depends on worker interleaving, so — as
		// with caching — execution counts under the reduction vary across
		// runs while the bug set, BoundCompleted and the class counts do not.
		bpor: parent.bpor,
	}
	// Batched state-set probes: fingerprints accumulate in a per-worker
	// buffer and flush a whole quantum per shard-lock acquire, instead of
	// one lock round-trip per probe. Flushed at every execution end and
	// before parking, so set counts are exact at every safepoint.
	var sc hb.Contention
	if e.prof != nil {
		sc = e.prof.Locks(worker, prof.LockStateSet)
	}
	e.probes = hb.NewProbeBuffer(ps.states, sc, hb.DefaultProbeQuantum)
	pb := e.probes
	e.fp = hb.NewFingerprinter(func(s uint64) { pb.Probe(s) })
	if e.opt.StateCache {
		e.cache = &Cache{fp: e.fp, shared: ps.table, sink: e.sink, met: e.met}
		if e.prof != nil {
			e.cache.lockWait = e.prof.Locks(worker, prof.LockWorkTable)
		}
	}
	e.initExec()
	e.res.BoundCompleted = -1
	return e
}

// Explore implements Strategy: the work-stealing parallel drain.
func (p ParallelICB) Explore(e *Engine) {
	w := p.NumWorkers()
	if w <= 1 {
		ICB{}.Explore(e)
		return
	}
	ps := newParSearch(e, w)
	e.scheduler = SchedulerWS

	place := p.distribute
	if place == nil {
		place = func(i, workers int) int { return i % workers }
	}
	seed := func(b int, items []sched.Schedule) {
		slot := b % 3
		for i, s := range items {
			wi := place(i, w)
			if wi < 0 || wi >= w {
				wi = 0
			}
			ps.dq[slot][wi].push(s)
		}
		ps.pend[slot].Add(int64(len(items)))
	}

	resumed := e.Options().Resume
	if resumed == nil {
		seed(0, []sched.Schedule{nil})
		ps.created[0].Store(1)
	} else {
		if resumed.Scheduler != SchedulerWS {
			// cmd-level callers run ValidateResumeWorkers first; reaching
			// this is a programming error, not a user input error.
			panic("core: ParallelICB resumed from a non-work-stealing snapshot (run ValidateResumeWorkers before Explore)")
		}
		if len(resumed.SeedQueue) == 0 && len(resumed.NextWork) == 0 &&
			len(resumed.NextWork2) == 0 && len(resumed.Held) == 0 {
			// A final snapshot of a finished search: nothing to do.
			return
		}
		if ps.maxBound >= 0 && resumed.Bound > ps.maxBound {
			// The end-of-budget snapshot: its frontier needs more budget
			// than this search allows, so the restored result is final.
			return
		}
		ps.cur = resumed.Bound
		seed(ps.cur, resumed.SeedQueue)
		seed(ps.cur+1, resumed.NextWork)
		seed(ps.cur+2, resumed.NextWork2)
		// One counted execution consumed exactly one work item, so items
		// ever created = items remaining + executions attributed.
		ps.created[ps.cur%3].Store(int64(len(resumed.SeedQueue) + resumed.DoneExecs))
		ps.created[(ps.cur+1)%3].Store(int64(len(resumed.NextWork) + resumed.EarlyExecs))
		ps.created[(ps.cur+2)%3].Store(int64(len(resumed.NextWork2)))
		ps.doneExecs[ps.cur%3].Store(int64(resumed.DoneExecs))
		ps.doneExecs[(ps.cur+1)%3].Store(int64(resumed.EarlyExecs))
		ps.cumAttr = resumed.BoundStartExecs
		ps.held = append(ps.held, resumed.Held...)
	}

	// Pre-spawn safepoint: retires any bound the restored frontier had
	// already drained (a stop can land between pend==0 and retirement),
	// files its due held sightings, and emits the opening BeginBound and
	// barrier snapshot. A fresh search passes straight through.
	if ps.safepoint(e) {
		return
	}

	ps.wg.Add(w)
	for wi := range ps.workers {
		go ps.workerLoop(wi, ps.workers[wi])
	}

	for {
		ps.mu.Lock()
		for !ps.retireReq && ps.exited < ps.w {
			ps.cond.Wait()
		}
		ps.retireReq = false
		ps.parkReq.Store(true)
		ps.cond.Broadcast()
		for ps.parked+ps.exited < ps.w {
			ps.cond.Wait()
		}
		ps.mu.Unlock()
		// Every worker is quiescent (parked in cond.Wait or exited) and has
		// flushed its probe buffer: the parent owns all shared state.
		done := ps.safepoint(e)
		ps.mu.Lock()
		if done {
			ps.shutdown.Store(true)
		}
		ps.parkReq.Store(false)
		ps.gen++
		ps.cond.Broadcast()
		ps.mu.Unlock()
		if done {
			ps.wg.Wait()
			return
		}
	}
}

// workerLoop is one worker goroutine: pop/steal/run until told to park,
// stop, or shut down. Spawned once for the whole search, not per bound.
func (ps *parSearch) workerLoop(wi int, we *Engine) {
	defer func() {
		we.flushProbes()
		ps.mu.Lock()
		ps.exited++
		ps.cond.Broadcast()
		ps.mu.Unlock()
		ps.wg.Done()
	}()
	for {
		if we.Done() || ps.shutdown.Load() {
			return
		}
		if ps.parkReq.Load() {
			if !ps.park(wi, we) {
				return
			}
			continue
		}
		item, b, ok := ps.findWork(wi)
		if !ok {
			if !ps.idleWait(wi, we) {
				return
			}
			continue
		}
		ps.runItem(wi, we, item, b)
	}
}

// park blocks at a safepoint until the parent finishes the retirement.
// Reports false when the search shut down while parked.
func (ps *parSearch) park(wi int, we *Engine) bool {
	we.flushProbes()
	var t0 time.Time
	if ps.prof != nil {
		t0 = time.Now()
	}
	ps.mu.Lock()
	ps.parked++
	ps.cond.Broadcast()
	for ps.parkReq.Load() && !ps.shutdown.Load() {
		ps.cond.Wait()
	}
	ps.parked--
	ps.mu.Unlock()
	if ps.prof != nil {
		ps.prof.NoteBarrierWait(wi, time.Since(t0).Nanoseconds())
	}
	return !ps.shutdown.Load()
}

// idleWait blocks until new work may exist. The lost-wakeup-free protocol:
// snapshot gen, advertise idleness, re-sweep every deque, and only then
// wait for gen to move — a pusher either saw the idle advertisement (and
// bumps gen) or pushed before it (and the re-sweep finds the item).
// Reports false when the search shut down.
func (ps *parSearch) idleWait(wi int, we *Engine) bool {
	we.flushProbes()
	ps.mu.Lock()
	g := ps.gen
	ps.mu.Unlock()
	ps.idle.Add(1)
	if item, b, ok := ps.findWork(wi); ok {
		ps.idle.Add(-1)
		ps.runItem(wi, we, item, b)
		return true
	}
	var t0 time.Time
	if ps.prof != nil {
		t0 = time.Now()
	}
	ps.mu.Lock()
	for ps.gen == g && !ps.parkReq.Load() && !ps.shutdown.Load() && !we.Done() {
		ps.cond.Wait()
	}
	ps.mu.Unlock()
	ps.idle.Add(-1)
	if ps.prof != nil {
		ps.prof.NoteIdle(wi, time.Since(t0).Nanoseconds())
	}
	return !ps.shutdown.Load()
}

// findWork returns the next item for worker wi and the bound it belongs
// to: own deque first (LIFO), then a steal sweep over the siblings' —
// at the current bound, then (softened barrier) one bound ahead.
func (ps *parSearch) findWork(wi int) (sched.Schedule, int, bool) {
	cur := ps.cur
	if s, ok := ps.takeAt(cur, wi); ok {
		return s, cur, true
	}
	// Nothing left to run or steal at the current bound: run the next
	// bound early — unless it exceeds the preemption budget, where running
	// it would change the explored execution set vs the sequential drain.
	if ps.maxBound < 0 || cur+1 <= ps.maxBound {
		if s, ok := ps.takeAt(cur+1, wi); ok {
			return s, cur + 1, true
		}
	}
	if ps.prof != nil {
		ps.prof.NoteFetchStall(wi)
	}
	return nil, 0, false
}

// takeAt pops wi's own deque for bound b, falling back to a round-robin
// steal sweep over the siblings'.
func (ps *parSearch) takeAt(b, wi int) (sched.Schedule, bool) {
	slot := b % 3
	if s, ok := ps.dq[slot][wi].pop(); ok {
		return s, true
	}
	for k := 1; k < ps.w; k++ {
		v := wi + k
		if v >= ps.w {
			v -= ps.w
		}
		if s, ok := ps.dq[slot][v].steal(); ok {
			if ps.prof != nil {
				ps.prof.NoteSteal(wi, true)
			}
			if ps.met != nil {
				ps.met.ObserveWorkerSteal(wi)
			}
			return s, true
		}
	}
	if ps.prof != nil {
		ps.prof.NoteSteal(wi, false)
	}
	return nil, false
}

// pushItem files a new work item for bound b on worker wi's deque and
// wakes an idle sibling to steal it.
func (ps *parSearch) pushItem(wi, b int, s sched.Schedule) {
	slot := b % 3
	ps.created[slot].Add(1)
	ps.pend[slot].Add(1)
	ps.dq[slot][wi].push(s)
	if ps.idle.Load() > 0 {
		ps.mu.Lock()
		ps.gen++
		ps.cond.Broadcast()
		ps.mu.Unlock()
	}
}

// runItem replays one work item at bound b: one execution, its generated
// alternatives pushed onto wi's own deques, then retirement accounting.
func (ps *parSearch) runItem(wi int, we *Engine, item sched.Schedule, b int) {
	we.curBound = b
	we.early = b != ps.cur
	ctrl := newICBController(we, item, b,
		func(alt sched.Schedule) { ps.pushItem(wi, b, alt) },
		func(alt sched.Schedule) { ps.pushItem(wi, b+1, alt) })
	before := we.Executions()
	out, done := we.RunExecution(ctrl)
	if done && we.Executions() == before {
		// The engine was already stopping and never ran the item; put it
		// back (no pend accounting — its slot was never released) so the
		// stop checkpoint does not lose its subtree.
		ps.dq[b%3][wi].push(item)
		we.flushProbes()
		return
	}
	if done {
		// Ran to completion before the stop landed: finish BPOR's
		// bookkeeping so the checkpoint frontier is complete.
		if ctrl.bpor != nil {
			ctrl.bporFinish(out.Status)
		}
	} else {
		finishItem(ctrl, out, b)
	}
	ps.doneExecs[b%3].Add(1)
	we.flushProbes()
	left := ps.pend[b%3].Add(-1)
	total := int(ps.created[b%3].Load())
	we.NoteWork(total-int(left), total)
	we.NoteFrontier(ps.frontierSize())
	if left == 0 && b == ps.cur {
		// The current bound's last item retired: summon the safepoint.
		ps.mu.Lock()
		ps.retireReq = true
		ps.cond.Broadcast()
		ps.mu.Unlock()
	}
}

// frontierSize is the queued-item count across the live bound window
// (excluding the caller's in-flight item).
func (ps *parSearch) frontierSize() int {
	n := int(ps.pend[0].Load()+ps.pend[1].Load()+ps.pend[2].Load()) - 1
	if n < 0 {
		n = 0
	}
	return n
}

// snapshotSlot copies bound b's queued items (worker order, FIFO within
// each deque) without consuming them. Safepoint only.
func (ps *parSearch) snapshotSlot(b int) []sched.Schedule {
	var out []sched.Schedule
	for _, d := range ps.dq[b%3] {
		out = append(out, d.snapshotQuiesced()...)
	}
	return out
}

// drainHeld moves every worker's held-sighting buffer into the parent
// pool. Safepoint only.
func (ps *parSearch) drainHeld() {
	for _, we := range ps.workers {
		ps.held = append(ps.held, we.held...)
		we.held = nil
		we.heldSeen = nil
	}
}

// popDue removes and returns the held sightings whose bound is now
// retiring (Bound <= bound); later bounds stay pooled.
func (ps *parSearch) popDue(bound int) []HeldBug {
	var due []HeldBug
	rest := ps.held[:0]
	for _, h := range ps.held {
		if h.Bound <= bound {
			due = append(due, h)
		} else {
			rest = append(rest, h)
		}
	}
	ps.held = rest
	return due
}

// hasDue reports whether any held sighting is at or below bound.
func (ps *parSearch) hasDue(bound int) bool {
	for _, h := range ps.held {
		if h.Bound <= bound {
			return true
		}
	}
	return false
}

// safepoint runs with every worker quiescent: drain held sightings, merge
// worker deltas (jointly with the retiring bound's due held bugs, so the
// bound's bug-list order is deterministic), then either capture the final
// stop snapshot or retire/promote bounds. Returns true when the search is
// over (workers must shut down).
func (ps *parSearch) safepoint(e *Engine) bool {
	ps.drainHeld()
	var due []HeldBug
	if ps.pend[ps.cur%3].Load() == 0 {
		due = ps.popDue(ps.cur)
	}
	ps.mergeInto(e, due)
	if e.done {
		ps.finalStopCheckpoint(e)
		return true
	}
	return ps.retireAndPromote(e, true)
}

// retireAndPromote retires every fully-drained bound (several in a row
// when early execution consumed a whole bound before it became current),
// then begins the next bound with pending work. merged says the caller
// already merged the first retiring bound's due held sightings.
func (ps *parSearch) retireAndPromote(e *Engine, merged bool) bool {
	for ps.pend[ps.cur%3].Load() == 0 {
		c := ps.cur
		if !merged {
			ps.mergeInto(e, ps.popDue(c))
			if e.done {
				ps.finalStopCheckpoint(e)
				return true
			}
		}
		merged = false
		// Deterministic per-bound attribution: doneExecs counted bound-c
		// executions wherever they ran (current or early), so the
		// BoundCurve/BoundStats execution columns match the sequential
		// drain's exactly; their state columns keep the shared set's
		// current size, which early executions bleed into.
		attr := int(ps.doneExecs[c%3].Swap(0))
		ps.cumAttr += attr
		total := int(ps.created[c%3].Load())
		e.NoteWork(total, total)
		e.NoteFrontier(int(ps.pend[(c+1)%3].Load() + ps.pend[(c+2)%3].Load()))
		// Anchor the per-bound baseline so CompleteBound (BoundStat, the
		// profiler's redundancy row) counts exactly the executions
		// attributed to this bound, not everything since the last barrier.
		e.restoreBoundBaseline(e.res.Executions - attr)
		e.SetBoundCompleted(c)
		if n := len(e.res.BoundCurve); n > 0 {
			e.res.BoundCurve[n-1].Executions = ps.cumAttr
		}
		if n := len(e.res.BoundStats); n > 0 {
			e.res.BoundStats[n-1].Executions = attr
			e.res.BoundStats[n-1].CumExecutions = ps.cumAttr
		}
		e.restoreBoundBaseline(ps.cumAttr)
		if ps.created[(c+1)%3].Load() == 0 {
			e.MarkExhausted()
			ps.armCkpt(e, nil)
			e.CaptureCheckpoint(c, nil, nil, true)
			return true
		}
		if ps.maxBound >= 0 && c >= ps.maxBound {
			// Budget reached with work deferred: the final snapshot carries
			// the next bound's remaining queue (early consumption of it was
			// gated off), so a resume with a higher bound can continue.
			ps.armCkpt(e, nil)
			e.CaptureCheckpoint(c+1, ps.snapshotSlot(c+1), nil, true)
			return true
		}
		ps.cur = c + 1
		// Recycle the retired bound's slot for cur+2 before any worker can
		// push to it (they are all parked).
		ps.created[(ps.cur+2)%3].Store(0)
		ps.doneExecs[(ps.cur+2)%3].Store(0)
		if e.opt.StopOnFirstBug && ps.hasDue(ps.cur) {
			// Held sightings at the new bound are minimal now that every
			// lower bound has retired: file them and stop without running
			// the bound's queue — the sequential search would have stopped
			// at its first sighting inside this bound too.
			ps.mergeInto(e, ps.popDue(ps.cur))
			ps.finalStopCheckpoint(e)
			return true
		}
	}
	e.BeginBound(ps.cur, int(ps.pend[ps.cur%3].Load()))
	e.restoreBoundBaseline(ps.cumAttr)
	// Bound-barrier snapshot: a crash never loses more than the live
	// window's progress (workers do not checkpoint mid-bound; a stop
	// produces the exact stop-point snapshot instead).
	ps.armCkpt(e, ps.snapshotSlot(ps.cur+2))
	e.CaptureCheckpoint(ps.cur, ps.snapshotSlot(ps.cur), ps.snapshotSlot(ps.cur+1), false)
	return false
}

// finalStopCheckpoint captures the exact remaining frontier of a stopping
// search: all three live bounds' deque contents plus the still-held early
// sightings (deliberately absent from Result.Bugs — they are unconfirmed-
// minimal; a resume files them when their bound retires).
func (ps *parSearch) finalStopCheckpoint(e *Engine) {
	c := ps.cur
	ps.armCkpt(e, ps.snapshotSlot(c+2))
	e.restoreBoundBaseline(ps.cumAttr)
	e.CaptureCheckpoint(c, ps.snapshotSlot(c), ps.snapshotSlot(c+1), true)
}

// armCkpt stages the stealing search's extra frontier state on the parent
// engine for the next exportState call.
func (ps *parSearch) armCkpt(e *Engine, next2 []sched.Schedule) {
	e.ckptNext2 = next2
	if len(ps.held) > 0 {
		e.ckptHeld = append([]HeldBug(nil), ps.held...)
	} else {
		e.ckptHeld = nil
	}
	e.ckptDoneExecs = int(ps.doneExecs[ps.cur%3].Load())
	e.ckptEarlyExecs = int(ps.doneExecs[(ps.cur+1)%3].Load())
}

// mergeInto folds the workers' results into the parent engine at a
// safepoint: cumulative executions, per-execution maxima, new coverage-
// curve points (sorted by global execution index), newly seen bugs and
// count bumps for already-filed ones. due carries the retiring bound's
// released held sightings; they are pooled and sorted together with the
// workers' fresh sightings (deduplicated by kind+message), so a full
// drain reports an identical, deterministically ordered bug list for
// every worker count. It also propagates stopping.
func (ps *parSearch) mergeInto(e *Engine, due []HeldBug) {
	e.res.Executions = int(ps.execs.Load())

	var newPoints []CoveragePoint
	type sighting struct {
		bug  Bug
		held bool
	}
	var fresh []sighting
	stopped := false
	for wi, we := range ps.workers {
		if we.done {
			stopped = true
		}
		if we.res.MaxSteps > e.res.MaxSteps {
			e.res.MaxSteps = we.res.MaxSteps
		}
		if we.res.MaxBlocking > e.res.MaxBlocking {
			e.res.MaxBlocking = we.res.MaxBlocking
		}
		if we.res.MaxPreemptions > e.res.MaxPreemptions {
			e.res.MaxPreemptions = we.res.MaxPreemptions
		}
		newPoints = append(newPoints, we.res.Curve[ps.curveDone[wi]:]...)
		ps.curveDone[wi] = len(we.res.Curve)

		for bi := range we.res.Bugs {
			wb := &we.res.Bugs[bi]
			merged := 0
			if bi < len(ps.bugsDone[wi]) {
				merged = ps.bugsDone[wi][bi]
			} else {
				ps.bugsDone[wi] = append(ps.bugsDone[wi], 0)
			}
			if delta := wb.Count - merged; delta > 0 {
				k := bugKey{kind: wb.Kind, msg: wb.Message}
				if e.bugSeen == nil {
					e.bugSeen = make(map[bugKey]int)
				}
				if pi, seen := e.bugSeen[k]; seen {
					e.res.Bugs[pi].Count += delta
				} else {
					b := *wb
					b.Count = delta
					fresh = append(fresh, sighting{bug: b})
				}
				ps.bugsDone[wi][bi] = wb.Count
			}
		}
	}
	for _, h := range due {
		fresh = append(fresh, sighting{bug: h.Bug, held: true})
	}

	sort.Slice(newPoints, func(i, j int) bool { return newPoints[i].Executions < newPoints[j].Executions })
	e.res.Curve = append(e.res.Curve, newPoints...)

	// First sightings released this safepoint, ordered by (kind, message)
	// so a full drain reports an identical bug list for every worker
	// count. Workers may have sighted the same defect independently (or
	// both early and normally) before the merge could dedup it; fold those
	// duplicates' counts together. Held sightings emit their telemetry
	// here — their workers deliberately stayed silent.
	sort.Slice(fresh, func(i, j int) bool {
		a, b := &fresh[i].bug, &fresh[j].bug
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Message < b.Message
	})
	for _, s := range fresh {
		k := bugKey{kind: s.bug.Kind, msg: s.bug.Message}
		if e.bugSeen == nil {
			e.bugSeen = make(map[bugKey]int)
		}
		if pi, seen := e.bugSeen[k]; seen {
			e.res.Bugs[pi].Count += s.bug.Count
			continue
		}
		e.bugSeen[k] = len(e.res.Bugs)
		e.res.Bugs = append(e.res.Bugs, s.bug)
		if s.held {
			if e.met != nil {
				e.met.Bugs.Add(1)
			}
			if e.prof != nil {
				e.prof.NoteFirstBug(s.bug.Kind.String(), s.bug.Message, s.bug.Execution, s.bug.Preemptions)
			}
			if e.sink != nil {
				e.sink.BugFound(obs.BugEvent{
					Kind:        s.bug.Kind.String(),
					Message:     s.bug.Message,
					Preemptions: s.bug.Preemptions,
					Execution:   s.bug.Execution,
					Schedule:    s.bug.Schedule.String(),
					Steps:       s.bug.Steps,
				})
			}
		}
	}
	if len(due) > 0 && e.opt.StopOnFirstBug {
		// A released held sighting is a real sighting: the sequential
		// search would have stopped at it (its bound is now fully
		// retired, so it is minimal).
		e.halt()
	}

	// Work-item-table totals: the parent's Cache reports the summed
	// per-worker counters (the table itself is shared, so Size is global).
	if e.cache != nil {
		hits, misses := 0, 0
		for _, we := range ps.workers {
			hits += we.cache.hits
			misses += we.cache.misses
		}
		e.cache.hits, e.cache.misses = ps.baseHits+hits, ps.baseMisses+misses
		e.cache.shared = ps.table
	}

	if stopped || ps.stop.Load() {
		e.done = true
	}
}
