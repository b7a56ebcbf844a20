package core

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"icb/internal/hb"
	"icb/internal/obs"
	"icb/internal/obs/prof"
	"icb/internal/sched"
)

// ParallelICB is Algorithm 1's one search loop: per-worker Chase–Lev
// work-stealing deques and a softened bound barrier. ICB is its
// one-worker instance and CSB the same loop under a switch-cost rule. The
// stateless design makes this sound — every work item is a replay
// schedule restartable from the initial state, so items within one bound
// are independent and can be drained in any order, including
// concurrently.
//
// Scheduling: each worker owns one deque per live bound and drains its own
// bottom LIFO (a seed's subtree depth-first), stealing from the top of a
// sibling's deque when its own runs dry — a steal takes the oldest item,
// the root of the largest remaining subtree. Work-item granularity is a
// single execution, not a whole seed subtree, so load imbalance
// self-corrects at every push. A bound's items are generated into its
// deques oldest first; promoting the bound to current reverses them, so
// its seeds drain oldest first too.
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
//     exactly the one-worker search's (at bound granularity: several
//     same-bound bugs may race to be "first", as in any parallel drain);
//   - Theorem 1's coverage meaning: Result.BoundCompleted advances to c
//     only at c's retirement, when every execution with at most c
//     preemptions has run. Early executions never run past the preemption
//     budget (MaxPreemptions), so the explored execution set is identical
//     to the one-worker search's.
//
// One worker runs on the caller's goroutine with the engine as its only
// worker: bound c's deque is empty only once c has retired, so the
// barrier never softens, and the drain order is the reference order — a
// bound's seeds oldest first, each seed's subtree last in, first out.
//
// What is deterministic across worker counts (full drain, no caching): the
// bug set with per-bug minimal preemption counts and sighting counts, the
// bound-ordered bug list, BoundCompleted, Exhausted, total executions, the
// distinct-state and execution-class counts, and the per-bound execution
// attribution in BoundCurve/BoundStats. What is intentionally
// nondeterministic at two workers or more: execution order, the coverage
// growth curve, per-bound state-count samples (early executions bleed
// into them), which equivalent execution claims a work item under state
// caching (and hence cache hit/miss splits and execution counts under
// caching), and which of several same-bound bugs is reported first.
//
// Workers <= 0 selects GOMAXPROCS.
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

// Name implements Strategy. One worker keeps the canonical "icb" name:
// it is the ICB strategy.
func (p ParallelICB) Name() string {
	if w := p.NumWorkers(); w > 1 {
		return fmt.Sprintf("icb-w%d", w)
	}
	return "icb"
}

// Explore implements Strategy.
func (p ParallelICB) Explore(e *Engine) { newSearch(e, p.NumWorkers(), p.distribute, false).run(e) }

// search is the state of one exploration: the worker engines (at one
// worker, the parent engine itself), the per-bound deques and counters,
// and — at two workers or more — the shared concurrent coverage sets,
// work-item table, stop flag and execution counter, and the safepoint
// coordination.
type search struct {
	w       int
	workers []*Engine
	// csb selects CSB's cost rule for every work item (see icbController).
	csb bool

	// cur is the bound currently retiring. Written only at safepoints (all
	// workers parked or exited, ordered through mu), read freely by
	// running workers in between.
	cur      int
	maxBound int
	// dq[b%3][wi] is worker wi's deque for bound b: three slots cover the
	// live window {cur, cur+1, cur+2} (the softened barrier never lets a
	// worker run more than one bound ahead, and running cur+1 generates at
	// most cur+2). A slot is recycled for bound c+3 at the promotion to
	// c+1, when bound c is fully retired and its slot provably empty.
	dq [3][]wsDeque
	// pend[b%3] counts bound b's unretired work items, including the ones
	// in flight; a worker pushes an item's children before decrementing
	// its own pend slot, so a decrement to zero at the current bound is
	// exactly its retirement trigger. doneExecs[b%3] counts executions
	// attributed to bound b, which rebuilds the deterministic per-bound
	// execution numbers in BoundCurve/BoundStats that the shared execution
	// counter alone cannot provide once early executions interleave. Every
	// retired item ran exactly one counted execution, so pend+doneExecs is
	// the number of items ever created for the bound (zero: the bound does
	// not exist and the space is exhausted).
	pend, doneExecs [3]atomic.Int64
	// cumAttr is the cumulative execution count attributed to retired
	// bounds (updated at safepoints).
	cumAttr int

	// held pools early bug sightings drained from the workers, waiting for
	// their bound to retire (safepoint-only; workers buffer their own in
	// Engine.held until the next safepoint).
	held []HeldBug

	// The fields below serve two workers or more.

	// stop is the search-wide abort flag shared by every worker: the
	// parent's external flag (Options.Stop, signal handling) when one was
	// provided, a private one otherwise.
	stop    *atomic.Bool
	execs   atomic.Int64
	states  *hb.ShardedStateSet
	classes *hb.ShardedStateSet
	table   *sharedTable // nil when state caching is off
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

	// Safepoint and idle coordination. spReq tells the parent a worker
	// wants a safepoint: the current bound hit pend==0, or a checkpoint is
	// due. parkReq asks every worker to park at its next execution
	// boundary; shutdown ends the search. gen increments whenever new work
	// may have appeared, so idle workers never miss a wakeup: they read
	// gen, advertise idleness, re-sweep every deque, and only then wait for
	// gen to move (a pusher that saw idle>0 bumps gen under mu; one that
	// did not is ordered before the re-sweep).
	mu       sync.Mutex
	cond     *sync.Cond
	gen      uint64
	idle     atomic.Int64
	parkReq  atomic.Bool
	shutdown atomic.Bool
	spReq    bool
	parked   int
	exited   int
	wg       sync.WaitGroup
}

// newSearch builds a w-worker search over e and seeds it: with the root
// work item, or with the frontier of the snapshot e was restored from. At
// two workers or more, e's coverage sets, work-item table and execution
// count are migrated into shared concurrent ones and w worker engines are
// built around them; e itself runs no executions then.
func newSearch(e *Engine, w int, place func(i, workers int) int, csb bool) *search {
	s := &search{w: w, csb: csb, maxBound: e.opt.MaxPreemptions}
	for b := range s.dq {
		s.dq[b] = make([]wsDeque, w)
	}
	if w == 1 {
		s.workers = []*Engine{e}
	} else {
		s.shareEngine(e)
	}
	st := e.opt.Resume
	if st == nil {
		s.dq[0][0].push(nil)
		s.pend[0].Store(1)
		return s
	}
	if place == nil {
		place = func(i, workers int) int { return i % workers }
	}
	c := st.Bound
	s.cur = c
	s.seed(c, st.SeedQueue, true, place)
	s.seed(c+1, st.NextWork, false, place)
	s.seed(c+2, st.NextWork2, false, place)
	done := st.Result.Executions - st.BoundStartExecs - st.EarlyExecs
	s.doneExecs[c%3].Store(int64(done))
	s.doneExecs[(c+1)%3].Store(int64(st.EarlyExecs))
	s.cumAttr = st.BoundStartExecs
	s.held = append(s.held, st.Held...)
	return s
}

// seed files restored items for bound b, item i on worker place(i, w).
// drainOrder says items are listed in the order one worker drains them
// (the current bound's queue): they are pushed last first, so each
// worker pops them in list order. Otherwise they are in generation order,
// which the bound's promotion reverses.
func (s *search) seed(b int, items []sched.Schedule, drainOrder bool, place func(i, workers int) int) {
	for i := range items {
		if drainOrder {
			i = len(items) - 1 - i
		}
		wi := place(i, s.w)
		if wi < 0 || wi >= s.w {
			wi = 0
		}
		s.dq[b%3][wi].push(items[i])
	}
	s.pend[b%3].Add(int64(len(items)))
}

// shareEngine converts the parent engine to shared concurrent coverage
// structures and builds the worker engines around them. A parent restored
// from a resume snapshot (NewEngine imported it into its own structures)
// has its coverage sets, work-item table and execution count migrated.
func (s *search) shareEngine(parent *Engine) {
	s.stop = parent.stop
	if s.stop == nil {
		s.stop = new(atomic.Bool)
	}
	s.states, s.classes = hb.NewShardedStateSet(), hb.NewShardedStateSet()
	s.curveDone, s.bugsDone = make([]int, s.w), make([][]int, s.w)
	s.met, s.prof = parent.met, parent.prof
	s.cond = sync.NewCond(&s.mu)
	for _, x := range parent.states.Elems() {
		s.states.Add(x)
	}
	for _, x := range parent.classes.Elems() {
		s.classes.Add(x)
	}
	s.execs.Store(int64(parent.res.Executions))
	// The parent runs no executions itself; it reads the shared sets at
	// safepoints so coverage counters in bound events and BoundStats
	// reflect all workers.
	parent.states = s.states
	parent.classes = s.classes
	if parent.opt.StateCache {
		s.table = newSharedTable()
		for k := range parent.cache.table {
			s.table.tryInsert(k, nil)
		}
		s.baseHits = parent.cache.hits
		s.baseMisses = parent.cache.misses
	}
	for i := 0; i < s.w; i++ {
		s.workers = append(s.workers, newWorkerEngine(parent, i, s))
	}
}

// newWorkerEngine builds one worker: a full Engine with private
// fingerprinter, race detector, observer slice and statistics, wired to
// the search-wide shared structures. Telemetry objects (sink, metrics,
// estimator, coverage recorder, trace observer) are shared as-is — every
// implementation in package obs serializes internally.
func newWorkerEngine(parent *Engine, worker int, s *search) *Engine {
	e := &Engine{
		prog:        parent.prog,
		opt:         parent.opt,
		states:      s.states,
		classes:     s.classes,
		sink:        parent.sink,
		met:         parent.met,
		est:         parent.est,
		curBound:    -1,
		worker:      worker,
		stop:        s.stop,
		sharedExecs: &s.execs,
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
	e.probes = hb.NewProbeBuffer(s.states, sc, hb.DefaultProbeQuantum)
	pb := e.probes
	e.fp = hb.NewFingerprinter(func(x uint64) { pb.Probe(x) })
	if e.opt.StateCache {
		e.cache = &Cache{fp: e.fp, shared: s.table, sink: e.sink, met: e.met}
		if e.prof != nil {
			e.cache.lockWait = e.prof.Locks(worker, prof.LockWorkTable)
		}
	}
	e.initExec()
	e.res.BoundCompleted = -1
	return e
}

// run drives the search to its end.
func (s *search) run(e *Engine) {
	if st := e.opt.Resume; st != nil && (st.Result.Exhausted || s.maxBound >= 0 && st.Bound > s.maxBound) {
		// The final snapshot of a finished search, or the end-of-budget one
		// whose frontier needs more budget than this search allows: the
		// restored result is already final.
		return
	}
	// The opening safepoint retires any bound the restored frontier had
	// already drained (a stop can land between pend==0 and retirement),
	// files its due held sightings, and emits the opening BeginBound and
	// barrier snapshot. A fresh search passes straight through.
	if s.safepoint(e, true) {
		return
	}
	if s.w == 1 {
		s.drainInline(e)
		return
	}

	s.wg.Add(s.w)
	for wi := range s.workers {
		go s.workerLoop(wi, s.workers[wi])
	}
	for {
		s.mu.Lock()
		for !s.spReq && s.exited < s.w {
			s.cond.Wait()
		}
		s.spReq = false
		s.parkReq.Store(true)
		s.cond.Broadcast()
		for s.parked+s.exited < s.w {
			s.cond.Wait()
		}
		s.mu.Unlock()
		// Every worker is quiescent (parked in cond.Wait or exited) and has
		// flushed its probe buffer: the parent owns all shared state.
		done := s.safepoint(e, false)
		s.mu.Lock()
		if done {
			s.shutdown.Store(true)
		}
		s.parkReq.Store(false)
		s.gen++
		s.cond.Broadcast()
		s.mu.Unlock()
		if done {
			s.wg.Wait()
			return
		}
	}
}

// drainInline is the one-worker loop, on the caller's goroutine. The
// engine is the only worker, so its deque for the current bound runs dry
// exactly when the bound retires, and every execution boundary is a
// safepoint: a due checkpoint is taken right there.
func (s *search) drainInline(e *Engine) {
	for {
		d := &s.dq[s.cur%3][0]
		if e.Done() || d.size() == 0 {
			if s.safepoint(e, false) {
				return
			}
			continue
		}
		if e.checkpointDue() {
			s.capture(e, s.cur, false)
		}
		item, _ := d.pop()
		s.runItem(0, e, item, s.cur)
	}
}

// workerLoop is one worker goroutine: pop/steal/run until told to park,
// stop, or shut down. Spawned once for the whole search, not per bound.
func (s *search) workerLoop(wi int, we *Engine) {
	defer func() {
		we.flushProbes()
		s.mu.Lock()
		s.exited++
		s.cond.Broadcast()
		s.mu.Unlock()
		s.wg.Done()
	}()
	for {
		if we.Done() || s.shutdown.Load() {
			return
		}
		if s.parkReq.Load() {
			if !s.park(wi, we) {
				return
			}
			continue
		}
		if we.checkpointDue() {
			s.requestSafepoint()
		}
		item, b, ok := s.findWork(wi)
		if !ok {
			if !s.idleWait(wi, we) {
				return
			}
			continue
		}
		s.runItem(wi, we, item, b)
	}
}

// requestSafepoint summons the parent to a safepoint.
func (s *search) requestSafepoint() {
	s.mu.Lock()
	s.spReq = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// park blocks at a safepoint until the parent finishes it. Reports false
// when the search shut down while parked.
func (s *search) park(wi int, we *Engine) bool {
	we.flushProbes()
	var t0 time.Time
	if s.prof != nil {
		t0 = time.Now()
	}
	s.mu.Lock()
	s.parked++
	s.cond.Broadcast()
	for s.parkReq.Load() && !s.shutdown.Load() {
		s.cond.Wait()
	}
	s.parked--
	s.mu.Unlock()
	if s.prof != nil {
		s.prof.NoteBarrierWait(wi, time.Since(t0).Nanoseconds())
	}
	return !s.shutdown.Load()
}

// idleWait blocks until new work may exist. The lost-wakeup-free protocol:
// snapshot gen, advertise idleness, re-sweep every deque, and only then
// wait for gen to move — a pusher either saw the idle advertisement (and
// bumps gen) or pushed before it (and the re-sweep finds the item).
// Reports false when the search shut down.
func (s *search) idleWait(wi int, we *Engine) bool {
	we.flushProbes()
	s.mu.Lock()
	g := s.gen
	s.mu.Unlock()
	s.idle.Add(1)
	if item, b, ok := s.findWork(wi); ok {
		s.idle.Add(-1)
		s.runItem(wi, we, item, b)
		return true
	}
	var t0 time.Time
	if s.prof != nil {
		t0 = time.Now()
	}
	s.mu.Lock()
	for s.gen == g && !s.parkReq.Load() && !s.shutdown.Load() && !we.Done() {
		s.cond.Wait()
	}
	s.mu.Unlock()
	s.idle.Add(-1)
	if s.prof != nil {
		s.prof.NoteIdle(wi, time.Since(t0).Nanoseconds())
	}
	return !s.shutdown.Load()
}

// findWork returns the next item for worker wi and the bound it belongs
// to: own deque first (LIFO), then a steal sweep over the siblings' —
// at the current bound, then (softened barrier) one bound ahead.
func (s *search) findWork(wi int) (sched.Schedule, int, bool) {
	cur := s.cur
	if item, ok := s.takeAt(cur, wi); ok {
		return item, cur, true
	}
	// Nothing left to run or steal at the current bound: run the next
	// bound early — unless it exceeds the preemption budget, where running
	// it would change the explored execution set.
	if s.maxBound < 0 || cur+1 <= s.maxBound {
		if item, ok := s.takeAt(cur+1, wi); ok {
			return item, cur + 1, true
		}
	}
	if s.prof != nil {
		s.prof.NoteFetchStall(wi)
	}
	return nil, 0, false
}

// takeAt pops wi's own deque for bound b, falling back to a round-robin
// steal sweep over the siblings'.
func (s *search) takeAt(b, wi int) (sched.Schedule, bool) {
	dq := s.dq[b%3]
	if item, ok := dq[wi].pop(); ok {
		return item, true
	}
	for k := 1; k < s.w; k++ {
		v := wi + k
		if v >= s.w {
			v -= s.w
		}
		if item, ok := dq[v].steal(); ok {
			if s.prof != nil {
				s.prof.NoteSteal(wi, true)
			}
			if s.met != nil {
				s.met.ObserveWorkerSteal(wi)
			}
			return item, true
		}
	}
	if s.prof != nil {
		s.prof.NoteSteal(wi, false)
	}
	return nil, false
}

// pushItem files a new work item for bound b on worker wi's deque and
// wakes an idle sibling to steal it.
func (s *search) pushItem(wi, b int, item sched.Schedule) {
	slot := b % 3
	s.pend[slot].Add(1)
	s.dq[slot][wi].push(item)
	if s.idle.Load() > 0 {
		s.mu.Lock()
		s.gen++
		s.cond.Broadcast()
		s.mu.Unlock()
	}
}

// runItem replays one work item at bound b: one execution, its generated
// alternatives pushed onto wi's own deques, then retirement accounting.
func (s *search) runItem(wi int, we *Engine, item sched.Schedule, b int) {
	we.curBound = b
	we.early = b != s.cur
	ctrl := newICBController(we, item, b, s.csb,
		func(alt sched.Schedule) { s.pushItem(wi, b, alt) },
		func(alt sched.Schedule) { s.pushItem(wi, b+1, alt) })
	before := we.Executions()
	out, done := we.RunExecution(ctrl)
	if done && we.Executions() == before {
		// The engine was already stopping and never ran the item; put it
		// back (no pend accounting — its slot was never released) so the
		// stop checkpoint does not lose its subtree.
		s.dq[b%3][wi].push(item)
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
	ran := s.doneExecs[b%3].Add(1)
	we.flushProbes()
	left := s.pend[b%3].Add(-1)
	we.NoteWork(int(ran), int(ran+left))
	we.NoteFrontier(s.frontierSize())
	if left == 0 && b == s.cur && s.w > 1 {
		// The current bound's last item retired: summon the safepoint.
		s.requestSafepoint()
	}
}

// frontierSize is the queued-item count across the live bound window,
// less one: the item the reporting worker runs next.
func (s *search) frontierSize() int {
	return max(int(s.pend[0].Load()+s.pend[1].Load()+s.pend[2].Load())-1, 0)
}

// queued copies bound b's queued items in the order one worker drains
// them: the current bound's deques bottom first, a later bound's in
// generation order (its promotion reverses them). Safepoint only.
func (s *search) queued(b int) []sched.Schedule {
	var out []sched.Schedule
	for wi := range s.dq[b%3] {
		items := s.dq[b%3][wi].snapshotQuiesced()
		if b == s.cur {
			slices.Reverse(items)
		}
		out = append(out, items...)
	}
	return out
}

// capture hands the checkpoint sink, if any, a snapshot of the search at
// bound: the live window when bound is the current one, or bound's own
// queue alone (the end-of-budget snapshot of the next bound). Safepoint
// only.
func (s *search) capture(e *Engine, bound int, final bool) {
	if e.opt.Checkpoint == nil {
		return
	}
	f := ckptFrontier{bound: bound, seeds: s.queued(bound), held: slices.Clone(s.held)}
	if bound == s.cur {
		f.next, f.next2 = s.queued(bound+1), s.queued(bound+2)
		f.earlyExecs = int(s.doneExecs[(bound+1)%3].Load())
	}
	e.captureCheckpoint(f, final)
}

// drainHeld moves every worker's held-sighting buffer into the search's
// pool. Safepoint only.
func (s *search) drainHeld() {
	for _, we := range s.workers {
		s.held = append(s.held, we.held...)
		we.held = nil
		we.heldSeen = nil
	}
}

// popDue removes and returns the held sightings whose bound is now
// retiring (Bound <= bound); later bounds stay pooled.
func (s *search) popDue(bound int) []HeldBug {
	var due []HeldBug
	rest := s.held[:0]
	for _, h := range s.held {
		if h.Bound <= bound {
			due = append(due, h)
		} else {
			rest = append(rest, h)
		}
	}
	s.held = rest
	return due
}

// hasDue reports whether any held sighting is at or below bound.
func (s *search) hasDue(bound int) bool {
	for _, h := range s.held {
		if h.Bound <= bound {
			return true
		}
	}
	return false
}

// safepoint runs with every worker quiescent: drain held sightings, merge
// worker deltas (jointly with the retiring bound's due held bugs, so the
// bound's bug-list order is deterministic), then capture the final stop
// snapshot, retire and promote bounds, or take the periodic snapshot a
// worker asked for. start marks the opening safepoint, which begins the
// current bound even when nothing retires. Returns true when the search
// is over (workers must shut down).
func (s *search) safepoint(e *Engine, start bool) bool {
	s.drainHeld()
	var due []HeldBug
	if s.pend[s.cur%3].Load() == 0 {
		due = s.popDue(s.cur)
	}
	s.mergeInto(e, due)
	if e.Done() {
		s.capture(e, s.cur, true)
		return true
	}
	if start || s.pend[s.cur%3].Load() == 0 {
		return s.retireAndPromote(e, true)
	}
	s.capture(e, s.cur, false)
	return false
}

// retireAndPromote retires every fully-drained bound (several in a row
// when early execution consumed a whole bound before it became current),
// then begins the next bound with pending work. merged says the caller
// already merged the first retiring bound's due held sightings.
func (s *search) retireAndPromote(e *Engine, merged bool) bool {
	for s.pend[s.cur%3].Load() == 0 {
		c := s.cur
		if !merged {
			s.mergeInto(e, s.popDue(c))
			if e.Done() {
				s.capture(e, c, true)
				return true
			}
		}
		merged = false
		// Deterministic per-bound attribution: doneExecs counted bound-c
		// executions wherever they ran (current or early), so the
		// BoundCurve/BoundStats execution columns match the one-worker
		// drain's exactly; their state columns keep the shared set's
		// current size, which early executions bleed into.
		attr := int(s.doneExecs[c%3].Swap(0))
		s.cumAttr += attr
		e.NoteWork(attr, attr)
		e.NoteFrontier(int(s.pend[(c+1)%3].Load() + s.pend[(c+2)%3].Load()))
		// Anchor the per-bound baseline so CompleteBound (BoundStat, the
		// profiler's redundancy row) counts exactly the executions
		// attributed to this bound, not everything since the last barrier.
		e.restoreBoundBaseline(e.res.Executions - attr)
		e.SetBoundCompleted(c)
		if n := len(e.res.BoundCurve); n > 0 {
			e.res.BoundCurve[n-1].Executions = s.cumAttr
		}
		if n := len(e.res.BoundStats); n > 0 {
			e.res.BoundStats[n-1].Executions = attr
			e.res.BoundStats[n-1].CumExecutions = s.cumAttr
		}
		e.restoreBoundBaseline(s.cumAttr)
		if s.pend[(c+1)%3].Load()+s.doneExecs[(c+1)%3].Load() == 0 {
			e.MarkExhausted()
			s.capture(e, c, true)
			return true
		}
		if s.maxBound >= 0 && c >= s.maxBound {
			// Budget reached with work deferred: the final snapshot carries
			// the next bound's remaining queue (early consumption of it was
			// gated off), so a resume with a higher bound can continue.
			s.capture(e, c+1, true)
			return true
		}
		// The retired bound's slot now serves cur+2: its deques are empty
		// and its counters zero. Turn the promoted bound's deques so its
		// oldest items drain first.
		s.cur = c + 1
		for wi := range s.dq[s.cur%3] {
			s.dq[s.cur%3][wi].reverseQuiesced()
		}
		if e.opt.StopOnFirstBug && s.hasDue(s.cur) {
			// Held sightings at the new bound are minimal now that every
			// lower bound has retired: file them and stop without running
			// the bound's queue — the one-worker search would have stopped
			// at its first sighting inside this bound too.
			s.mergeInto(e, s.popDue(s.cur))
			s.capture(e, s.cur, true)
			return true
		}
	}
	e.BeginBound(s.cur, int(s.pend[s.cur%3].Load()))
	e.restoreBoundBaseline(s.cumAttr)
	// Bound-barrier snapshot: a crash never loses more than the current
	// bound's progress even when no periodic checkpoint was due.
	s.capture(e, s.cur, false)
	return false
}

// mergeInto folds the workers' results into the parent engine at a
// safepoint: cumulative executions, per-execution maxima, new coverage-
// curve points (sorted by global execution index), newly seen bugs and
// count bumps for already-filed ones. due carries the retiring bound's
// released held sightings; they are pooled and sorted together with the
// workers' fresh sightings (deduplicated by kind+message), so a full
// drain reports an identical, deterministically ordered bug list for
// every worker count. It also propagates stopping. At one worker the
// engine is the worker, so only due needs filing.
func (s *search) mergeInto(e *Engine, due []HeldBug) {
	type sighting struct {
		bug  Bug
		held bool
	}
	var fresh []sighting
	if s.w > 1 {
		e.res.Executions = int(s.execs.Load())
		var newPoints []CoveragePoint
		stopped := s.stop.Load()
		for wi, we := range s.workers {
			stopped = stopped || we.done
			e.res.MaxSteps = max(e.res.MaxSteps, we.res.MaxSteps)
			e.res.MaxBlocking = max(e.res.MaxBlocking, we.res.MaxBlocking)
			e.res.MaxPreemptions = max(e.res.MaxPreemptions, we.res.MaxPreemptions)
			newPoints = append(newPoints, we.res.Curve[s.curveDone[wi]:]...)
			s.curveDone[wi] = len(we.res.Curve)

			for bi := range we.res.Bugs {
				wb := &we.res.Bugs[bi]
				merged := 0
				if bi < len(s.bugsDone[wi]) {
					merged = s.bugsDone[wi][bi]
				} else {
					s.bugsDone[wi] = append(s.bugsDone[wi], 0)
				}
				if delta := wb.Count - merged; delta > 0 {
					k := bugKey{kind: wb.Kind, msg: wb.Message}
					if pi, seen := e.bugSeen[k]; seen {
						e.res.Bugs[pi].Count += delta
					} else {
						b := *wb
						b.Count = delta
						fresh = append(fresh, sighting{bug: b})
					}
					s.bugsDone[wi][bi] = wb.Count
				}
			}
		}
		sort.Slice(newPoints, func(i, j int) bool { return newPoints[i].Executions < newPoints[j].Executions })
		e.res.Curve = append(e.res.Curve, newPoints...)

		// Work-item-table totals: the parent's Cache reports the summed
		// per-worker counters (the table itself is shared, so Size is
		// global).
		if e.cache != nil {
			hits, misses := 0, 0
			for _, we := range s.workers {
				hits += we.cache.hits
				misses += we.cache.misses
			}
			e.cache.hits, e.cache.misses = s.baseHits+hits, s.baseMisses+misses
			e.cache.shared = s.table
		}
		if stopped {
			e.done = true
		}
	}
	for _, h := range due {
		fresh = append(fresh, sighting{bug: h.Bug, held: true})
	}

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
	for _, f := range fresh {
		k := bugKey{kind: f.bug.Kind, msg: f.bug.Message}
		if pi, seen := e.bugSeen[k]; seen {
			e.res.Bugs[pi].Count += f.bug.Count
			continue
		}
		if e.bugSeen == nil {
			e.bugSeen = make(map[bugKey]int)
		}
		e.bugSeen[k] = len(e.res.Bugs)
		e.res.Bugs = append(e.res.Bugs, f.bug)
		if f.held {
			if e.met != nil {
				e.met.Bugs.Add(1)
			}
			if e.prof != nil {
				e.prof.NoteFirstBug(f.bug.Kind.String(), f.bug.Message, f.bug.Execution, f.bug.Preemptions)
			}
			if e.sink != nil {
				e.sink.BugFound(obs.BugEvent{
					Kind:        f.bug.Kind.String(),
					Message:     f.bug.Message,
					Preemptions: f.bug.Preemptions,
					Execution:   f.bug.Execution,
					Schedule:    f.bug.Schedule.String(),
					Steps:       f.bug.Steps,
				})
			}
		}
	}
	if len(due) > 0 && e.opt.StopOnFirstBug {
		// A released held sighting is a real sighting: the one-worker
		// search would have stopped at it (its bound is now fully retired,
		// so it is minimal).
		e.halt()
	}
}
