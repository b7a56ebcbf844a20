package core

import (
	"sort"
	"sync"
	"sync/atomic"

	"icb/internal/obs"
	"icb/internal/sched"
)

// This file implements bounded partial-order reduction (BPOR) for the ICB
// search: dynamic partial-order reduction in the style of Flanagan &
// Godefroid, adapted to preemption bounding following Coons, Musuvathi &
// McKinley (the design dejafu's sctBounded/pBacktrack realizes). The
// profiler's per-bound redundancy accounting shows that most executions at
// a bound merely reorder independent steps of an already-seen Mazurkiewicz
// trace; BPOR prunes them while preserving what ICB guarantees: every
// trace whose minimal representative has at most c preemptions is covered
// when bound c completes, so the bug set, the ExecutionClasses count and
// the minimal-preemption first sighting are unchanged. What is NOT
// preserved is the exact execution count — that is the point.
//
// Three mechanisms, all driven by the dependency relation hb.Dependent
// (sched.Op.Conflicts):
//
//   - Targeted backtracking replaces blind expansion. Plain ICB pushes
//     every enabled thread u != Prev at every preemptible point into the
//     next bound. Under BPOR, the first time a decision is executed, the
//     search scans the recorded earlier scheduling points of the current
//     execution for steps conflicting with the decision's operation; for
//     each such step it emits the reordering work item at that earlier
//     point (the chosen thread there if enabled, else every enabled
//     thread — the classical fallback). A reordering that costs one more
//     preemption than the current bound goes to the next bound's queue;
//     one affordable within the bound goes to the local stack.
//
//   - Conservative backtracking points keep bounding sound. Reversing a
//     race can change where context switches fall, so the minimal
//     representative of the reversed trace may preempt at the prior
//     context switch rather than at the conflicting step itself (the
//     pBacktrack insight). For every non-conservative point added at step
//     j, the search also emits every enabled thread at the first point of
//     the quantum containing j (the prior context switch).
//
//   - Sleep sets suppress re-exploration of covered first-steps. Every
//     (prefix, decision) pair the search has taken or enqueued is
//     registered, in order, in a search-global table. When a later work
//     item replays through a prefix, every sibling decision registered
//     before the replayed one is put to sleep: its subtree is already
//     covered, so at voluntary (free) scheduling points the sleeping
//     thread is neither picked nor pushed until some executed operation
//     conflicts with its pending one (which wakes it). A free point whose
//     enabled threads are all asleep continues with a redundant run
//     rather than cutting — cutting there is the classic
//     sleep-set-blocking unsoundness (the lost suffix never runs its
//     scans); only the sibling pushes are suppressed.
//
//   - Truncated executions fall back to blind branching. An assertion
//     failure, panic or step limit aborts a run before the surviving
//     threads' remaining steps can justify backtracking points, so every
//     scheduling point of such an execution is expanded exactly as plain
//     ICB would (see bporExpandTruncated); aborting runs are the rare
//     case, so the reduction's savings survive.
//
// The registration table doubles as emission deduplication (each work
// item is generated at most once, which also bounds the reduction's own
// bookkeeping) and is part of the search checkpoint, so a resumed BPOR
// search prunes exactly what the uninterrupted one would have.
//
// The reduction composes with the work-item cache: backtracking emissions
// at earlier points consult the cache with the happens-before fingerprint
// recorded at that point (Cache.TryTakeAt), mirroring what plain ICB's
// push does at the current point.

// bporSeen is one registered (prefix, decision) pair: Seq is its global
// registration order (the sleep-set "explored earlier" order), Scanned
// whether the decision's backtracking scan has run (the scan runs at the
// pair's first execution, which for enqueued work items is later than its
// registration).
type bporSeen struct {
	Seq     uint64
	Scanned bool
}

// bporState is the search-global state of the reduction, shared by every
// worker engine of a parallel search and persisted in checkpoints.
type bporState struct {
	mu   sync.Mutex
	seen map[string]bporSeen
	seq  uint64

	// Per-bound accounting (folded at obs.MaxTrackedBounds like every other
	// per-bound counter): suppressed counts work items blind expansion would
	// have pushed that the reduction did not, emitted the backtracking items
	// it pushed instead.
	suppressed   [obs.MaxTrackedBounds]atomic.Int64
	emitted      [obs.MaxTrackedBounds]atomic.Int64
	sleepBlocked atomic.Int64
	truncated    atomic.Bool
}

func newBPORState() *bporState {
	return &bporState{seen: make(map[string]bporSeen)}
}

// register records key (if absent) and reports its registration order.
// Probing with seen[string(key)] does not allocate; only an insertion
// copies the key into a string.
func (b *bporState) register(key []byte) (seq uint64, isNew bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if r, ok := b.seen[string(key)]; ok {
		return r.Seq, false
	}
	b.seq++
	b.seen[string(key)] = bporSeen{Seq: b.seq}
	return b.seq, true
}

// markScanned records that key's backtracking scan is about to run and
// reports whether this call claimed it (false if already scanned, which
// leaves the entry untouched). The key is registered if it was not yet.
func (b *bporState) markScanned(key []byte) (seq uint64, claimed bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	r, ok := b.seen[string(key)]
	if r.Scanned {
		return r.Seq, false
	}
	if !ok {
		b.seq++
		r.Seq = b.seq
	}
	r.Scanned = true
	b.seen[string(key)] = r
	return r.Seq, true
}

// lookup returns key's registration order, if registered.
func (b *bporState) lookup(key []byte) (uint64, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	r, ok := b.seen[string(key)]
	return r.Seq, ok
}

func (b *bporState) size() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.seen)
}

func (b *bporState) boundSlot(bound int) int {
	if bound < 0 {
		bound = 0
	}
	if bound >= obs.MaxTrackedBounds {
		b.truncated.Store(true)
		bound = obs.MaxTrackedBounds - 1
	}
	return bound
}

func (b *bporState) noteSuppressed(bound int, n int64) {
	if n > 0 {
		b.suppressed[b.boundSlot(bound)].Add(n)
	}
}

func (b *bporState) noteEmitted(bound int) {
	b.emitted[b.boundSlot(bound)].Add(1)
}

// prunedNet returns one bound's net pruning: suppressed blind pushes minus
// the backtracking items emitted instead, floored at zero.
func (b *bporState) prunedNet(bound int) int64 {
	s := b.boundSlot(bound)
	n := b.suppressed[s].Load() - b.emitted[s].Load()
	if n < 0 {
		return 0
	}
	return n
}

// statsEvent builds the final telemetry event of one exploration.
func (b *bporState) statsEvent(executions int) obs.BPORStatsEvent {
	ev := obs.BPORStatsEvent{
		Executions:   executions,
		SleepBlocked: b.sleepBlocked.Load(),
		SeenSize:     b.size(),
		Truncated:    b.truncated.Load(),
	}
	for i := 0; i < obs.MaxTrackedBounds; i++ {
		sup, em := b.suppressed[i].Load(), b.emitted[i].Load()
		if sup == 0 && em == 0 {
			continue
		}
		pruned := sup - em
		if pruned < 0 {
			pruned = 0
		}
		ev.Suppressed += sup
		ev.Emitted += em
		ev.Pruned += pruned
		ev.Bounds = append(ev.Bounds, obs.BPORBoundStat{
			Bound: i, Suppressed: sup, Emitted: em, Pruned: pruned,
		})
	}
	return ev
}

// netTotal sums prunedNet over all bounds.
func (b *bporState) netTotal() int64 {
	var total int64
	for i := 0; i < obs.MaxTrackedBounds; i++ {
		n := b.suppressed[i].Load() - b.emitted[i].Load()
		if n > 0 {
			total += n
		}
	}
	return total
}

// BPORSeenEntry is one serialized registration of the reduction's
// (prefix, decision) table, for search checkpoints.
type BPORSeenEntry struct {
	// Key is the opaque prefix+decision key.
	Key string `json:"k"`
	// Seq is the registration order (the sleep-set order).
	Seq uint64 `json:"q"`
	// Scanned reports that the decision's backtracking scan has run.
	Scanned bool `json:"s,omitempty"`
}

// export serializes the registration table sorted by key, so identical
// search states serialize to identical bytes.
func (b *bporState) export() []BPORSeenEntry {
	b.mu.Lock()
	out := make([]BPORSeenEntry, 0, len(b.seen))
	for k, r := range b.seen {
		out = append(out, BPORSeenEntry{Key: k, Seq: r.Seq, Scanned: r.Scanned})
	}
	b.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// exportCounters serializes the pruning accounting for checkpoints,
// trimming trailing zero bounds.
func (b *bporState) exportCounters() *BPORCounters {
	c := &BPORCounters{SleepBlocked: b.sleepBlocked.Load()}
	top := 0
	for i := 0; i < obs.MaxTrackedBounds; i++ {
		if b.suppressed[i].Load() != 0 || b.emitted[i].Load() != 0 {
			top = i + 1
		}
	}
	for i := 0; i < top; i++ {
		c.Suppressed = append(c.Suppressed, b.suppressed[i].Load())
		c.Emitted = append(c.Emitted, b.emitted[i].Load())
	}
	return c
}

// restoreCounters loads a checkpoint's pruning accounting, so a resumed
// search's pruned totals continue from where the interrupted one stopped.
func (b *bporState) restoreCounters(c *BPORCounters) {
	if c == nil {
		return
	}
	b.sleepBlocked.Store(c.SleepBlocked)
	for i, v := range c.Suppressed {
		if i < obs.MaxTrackedBounds {
			b.suppressed[i].Store(v)
		}
	}
	for i, v := range c.Emitted {
		if i < obs.MaxTrackedBounds {
			b.emitted[i].Store(v)
		}
	}
}

// restore loads a checkpoint's registration table; the sequence counter
// resumes past the highest restored order.
func (b *bporState) restore(entries []BPORSeenEntry) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, e := range entries {
		b.seen[e.Key] = bporSeen{Seq: e.Seq, Scanned: e.Scanned}
		if e.Seq > b.seq {
			b.seq = e.Seq
		}
	}
}

// bporPoint is one recorded thread-scheduling point of the in-flight
// execution: everything the backtracking scan needs to emit a reordering
// work item at this point after a later conflicting step is taken.
type bporPoint struct {
	// curLen is the number of decisions (thread and data) taken before this
	// point: the emitted work item is cur[:curLen] plus the new decision.
	curLen int
	// keyLen is the length of the registration-key prefix at this point.
	keyLen int
	// chosen is the thread scheduled here, chosenOp the operation it
	// executed (its pending op at choice time).
	chosen   sched.TID
	chosenOp sched.Op
	// prev/prevEnabled/preempts reproduce the point's preemption
	// accounting: scheduling t here costs preempts preemptions, plus one
	// when prevEnabled and t != prev.
	prev        sched.TID
	prevEnabled bool
	preempts    int
	// state is the happens-before fingerprint at the point (meaningful only
	// when the work-item cache is on; emissions consult Cache.TryTakeAt
	// with it).
	state uint64
	// qstart is the index of the first point of this point's quantum (the
	// maximal run of points choosing the same thread that ends here): the
	// prior context switch, where a backtracking point here gets its
	// conservative companion.
	qstart int
	// prevOnVar is the index of the latest earlier point whose chosenOp
	// accesses the same variable, -1 if none. Operations on distinct
	// variables never conflict, so the backtracking scan walks only this
	// chain.
	prevOnVar int
	// off and n locate the point's enabled set, and its queued flags, in
	// the execution's flat buffers: positions [off, off+n).
	off, n int
}

// bporSleeper is one sleeping thread with its pending operation at the
// time it was put to sleep; an executed conflicting operation wakes it.
type bporSleeper struct {
	t  sched.TID
	op sched.Op
}

// bporExec is the per-execution state of the reduction. Each engine owns
// one and resets it for every execution it runs (see Engine.bporExec), so
// its buffers are allocated once per engine, not once per execution.
type bporExec struct {
	st    *bporState
	bound int
	// sleep is the sleep set; thread counts are small, so a slice beats a
	// map.
	sleep []bporSleeper
	// points records every thread-scheduling point of the execution so far
	// (replayed and extended), in order.
	points []bporPoint
	// enabled holds every point's enabled set back to back; queued flags
	// the buffered backtracking emissions "schedule enabled[i] at its
	// point", one flag per enabled position, until the flush at the end of
	// the execution (see bporFlush). anyQueued reports a raised flag.
	enabled   []sched.TID
	queued    []bool
	anyQueued bool
	// lastOnVar maps VarID+1 to one more than the index of the latest
	// recorded point accessing that variable (0: none), the head of the
	// per-variable chain through bporPoint.prevOnVar.
	lastOnVar []int
	// keyBuf is the incremental registration-key prefix of the current
	// decision sequence (" t0 t1 d0 ..."); a point's prefix is keyBuf up to
	// its keyLen.
	keyBuf  []byte
	scratch []byte
}

// reset prepares x for a new execution at the given bound, keeping every
// buffer's capacity.
func (x *bporExec) reset(bound int) {
	x.bound = bound
	x.sleep = x.sleep[:0]
	x.points = x.points[:0]
	x.enabled = x.enabled[:0]
	x.queued = x.queued[:0]
	x.anyQueued = false
	clear(x.lastOnVar)
	x.keyBuf = x.keyBuf[:0]
}

// key returns the registration key of decision d at the current prefix,
// built in place past keyBuf's end. The result is valid until the next key
// or note call.
func (x *bporExec) key(d sched.Decision) []byte {
	n := len(x.keyBuf)
	k := d.Append(append(x.keyBuf, '|'))
	x.keyBuf = k[:n]
	return k
}

// keyAt returns the registration key of decision d at the recorded prefix
// of length keyLen, valid until the next keyAt call.
func (x *bporExec) keyAt(keyLen int, d sched.Decision) []byte {
	x.scratch = append(append(x.scratch[:0], x.keyBuf[:keyLen]...), '|')
	x.scratch = d.Append(x.scratch)
	return x.scratch
}

// note extends the key prefix with a taken decision; callers invoke it for
// every decision appended to the controller's cur, thread and data alike,
// keeping keyBuf aligned with the decision sequence.
func (x *bporExec) note(d sched.Decision) {
	x.keyBuf = d.Append(append(x.keyBuf, ' '))
}

// asleep reports whether t is sleeping.
func (x *bporExec) asleep(t sched.TID) bool {
	for _, s := range x.sleep {
		if s.t == t {
			return true
		}
	}
	return false
}

// putToSleep puts t to sleep with pending operation op (replacing the
// operation if t already sleeps).
func (x *bporExec) putToSleep(t sched.TID, op sched.Op) {
	for i := range x.sleep {
		if x.sleep[i].t == t {
			x.sleep[i].op = op
			return
		}
	}
	x.sleep = append(x.sleep, bporSleeper{t: t, op: op})
}

// record appends the current scheduling point (called after the scan, so
// the scan only sees strictly earlier points).
func (x *bporExec) record(info sched.PickInfo, chosen sched.TID, o sched.Op, curLen, preempts int, state uint64) {
	j := len(x.points)
	qstart := j
	if j > 0 && x.points[j-1].chosen == chosen {
		qstart = x.points[j-1].qstart
	}
	v := int(o.Var) + 1
	if v >= len(x.lastOnVar) {
		x.lastOnVar = append(x.lastOnVar, make([]int, v+1-len(x.lastOnVar))...)
	}
	x.points = append(x.points, bporPoint{
		curLen:      curLen,
		keyLen:      len(x.keyBuf),
		chosen:      chosen,
		chosenOp:    o,
		prev:        info.Prev,
		prevEnabled: info.PrevEnabled,
		preempts:    preempts,
		state:       state,
		qstart:      qstart,
		prevOnVar:   x.lastOnVar[v] - 1,
		off:         len(x.enabled),
		n:           len(info.Enabled),
	})
	x.lastOnVar[v] = j + 1
	x.enabled = append(x.enabled, info.Enabled...)
	x.queued = append(x.queued, make([]bool, len(info.Enabled))...)
}

// afterChoice updates the sleep set for an executed operation: the chosen
// thread is no longer covered-elsewhere, and any sleeper whose pending
// operation conflicts with the executed one wakes (the reordering against
// it is a genuinely different trace again).
func (x *bporExec) afterChoice(chosen sched.TID, o sched.Op) {
	keep := x.sleep[:0]
	for _, s := range x.sleep {
		if s.t != chosen && !s.op.Conflicts(o) {
			keep = append(keep, s)
		}
	}
	x.sleep = keep
}

// queue buffers the emission at flat enabled position i for the
// end-of-execution flush. Buffering exists purely for ordering: a scan
// discovers backtrack points grouped by the later conflicting step, but
// plain ICB pushes seeds in path order, and draining the next bound in a
// different order can displace a first sighting to a later execution.
func (x *bporExec) queue(i int) {
	x.queued[i] = true
	x.anyQueued = true
}

// queueAll buffers the emission of every thread enabled at point j.
func (x *bporExec) queueAll(j int) {
	pt := &x.points[j]
	for i := pt.off; i < pt.off+pt.n; i++ {
		x.queue(i)
	}
}

// pendingOp returns chosen's pending operation at this point.
func pendingOp(info sched.PickInfo, chosen sched.TID) sched.Op {
	return info.Ops[info.EnabledIndex(chosen)]
}

// stateFP returns the current happens-before fingerprint when the
// work-item cache is on (emissions key their cache consult on it).
func (c *icbController) stateFP() uint64 {
	if c.cache == nil {
		return 0
	}
	return c.cache.fp.Fingerprint()
}

// bporFinish is the reduction's end-of-execution step for every execution
// that ran, whether or not the search stops right after it: the
// truncated-execution fallback for an aborted run, then the flush. The
// stack drain, the parallel workers and both their stop paths share it, so
// a checkpoint taken at a stop holds the frontier the uninterrupted search
// would have drained.
func (c *icbController) bporFinish(status sched.Status) {
	switch status {
	case sched.StatusAssertFailed, sched.StatusPanic, sched.StatusStepLimit:
		// The execution was truncated before the surviving threads'
		// remaining steps could run their backtracking scans; fall back to
		// blind branching along it (see bporExpandTruncated).
		c.bporExpandTruncated()
	}
	c.bporFlush()
}

// bporFlush emits the execution's buffered backtracking items in (point
// index, position in the point's enabled set) order — exactly the order
// plain ICB pushes the same seeds while walking the path — by walking the
// points in order and each point's queued flags in order. A flag raised
// several times is one emission: once the first registers the item, a
// repeat would find its key and do nothing. With the queue a subsequence
// of the unreduced one in matching order, a bug's exposing item can only
// move forward, which is what the "BPOR finds the first bug with no more
// executions" pin tests rely on. Registration also happens here, not at
// queue time, so it cannot reorder against the free-point sibling pushes
// that happen live during the execution.
func (c *icbController) bporFlush() {
	x := c.bpor
	if !x.anyQueued {
		return
	}
	for j := range x.points {
		pt := &x.points[j]
		for i := pt.off; i < pt.off+pt.n; i++ {
			if x.queued[i] {
				x.queued[i] = false
				c.bporEmitAt(pt, x.enabled[i])
			}
		}
	}
	x.anyQueued = false
}

// bporEmitAt emits the work item "schedule t at recorded point pt" unless
// it is already registered (taken or enqueued before, anywhere in the
// search) or the work-item cache proves its subtree covered. The item's
// preemption cost routes it: affordable within the current bound goes to
// the local stack, one more goes to the next bound's queue.
func (c *icbController) bporEmitAt(pt *bporPoint, t sched.TID) {
	if t == pt.chosen {
		return
	}
	x := c.bpor
	cost := pt.preempts
	if pt.prevEnabled && t != pt.prev {
		cost++
	}
	if cost > x.bound+1 {
		// Unaffordable even next bound; cannot happen while the execution
		// stays within its bound, kept as a guard.
		return
	}
	if _, isNew := x.st.register(x.keyAt(pt.keyLen, sched.ThreadDecision(t))); !isNew {
		return
	}
	if c.cache != nil && !c.cache.TryTakeAt(pt.state, sched.ThreadDecision(t), cost) {
		return
	}
	alt := c.cur[:pt.curLen].Extend(sched.ThreadDecision(t))
	x.st.noteEmitted(x.bound)
	if cost > x.bound {
		c.onPreempt(alt)
	} else {
		c.onLocal(alt)
	}
}

// bporBacktrack runs the backtracking scan for a first-executed decision:
// thread p is about to execute operation o, so for every recorded earlier
// step by another thread whose operation conflicts with o — only steps on
// o's variable can — queue the reordering at that point (p if enabled
// there, else every enabled thread: the classical fallback when the racer
// cannot be scheduled directly), plus the conservative point preemption
// bounding requires: every enabled thread at the prior context switch (the
// first point of the conflicting step's quantum), where the minimal
// representative of the reversed trace may need to start its switch
// instead of preempting here. The flush orders what the scan queues, so
// walking the chain newest-first is fine.
func (c *icbController) bporBacktrack(p sched.TID, o sched.Op) {
	x := c.bpor
	v := int(o.Var) + 1
	if v >= len(x.lastOnVar) {
		return
	}
	for j := x.lastOnVar[v] - 1; j >= 0; j = x.points[j].prevOnVar {
		pt := &x.points[j]
		if pt.chosen == p || !pt.chosenOp.Conflicts(o) {
			continue
		}
		if i := x.posOf(pt, p); i >= 0 {
			x.queue(i)
		} else {
			x.queueAll(j)
		}
		x.queueAll(pt.qstart)
	}
}

// posOf returns t's flat enabled position at pt, -1 if t is not enabled
// there.
func (x *bporExec) posOf(pt *bporPoint, t sched.TID) int {
	for i := pt.off; i < pt.off+pt.n; i++ {
		if x.enabled[i] == t {
			return i
		}
	}
	return -1
}

// bporExpandTruncated blind-expands every recorded scheduling point of a
// truncated execution, exactly as plain ICB would. An assertion failure,
// panic or step limit aborts the run before the remaining threads'
// steps execute, and that breaks the reduction's core argument: a trace
// that differs only in which independent steps squeezed in before the
// abort has a different event set — a distinct class — yet the step that
// would justify its backtrack point never runs in the truncated
// representative, so no conflict scan can ever discover it. Falling back
// to Algorithm 1's blind branching along aborted executions (they are the
// rare case) restores class-for-class parity with the unreduced search
// while keeping the reduction's savings on the completing majority.
func (c *icbController) bporExpandTruncated() {
	x := c.bpor
	for j := range x.points {
		pt := &x.points[j]
		for i := pt.off; i < pt.off+pt.n; i++ {
			if x.enabled[i] != pt.chosen {
				x.queue(i)
			}
		}
	}
}

// bporReplayThread handles one replayed thread decision: register it (the
// first execution of an enqueued item runs its backtracking scan here),
// reconstruct the sleep set — every sibling registered before the taken
// decision is covered through an earlier subtree — and advance the sleep
// set past the executed operation. Called with c.preempts not yet
// including this decision's own preemption, so recorded costs are exact.
func (c *icbController) bporReplayThread(info sched.PickInfo, chosen sched.TID) {
	x := c.bpor
	o := pendingOp(info, chosen)
	seqTaken, claimed := x.st.markScanned(x.key(sched.ThreadDecision(chosen)))
	for i, u := range info.Enabled {
		if u == chosen {
			continue
		}
		if s, ok := x.st.lookup(x.key(sched.ThreadDecision(u))); ok && s < seqTaken {
			x.putToSleep(u, info.Ops[i])
		}
	}
	if claimed {
		c.bporBacktrack(chosen, o)
	}
	x.record(info, chosen, o, len(c.cur), c.preempts, c.stateFP())
	x.afterChoice(chosen, o)
}

// bporExtendThread handles one extension-phase scheduling point under the
// reduction, replacing the blind branches of Algorithm 1's lines 26-37.
// Returns the scheduled thread, or ok=false to cut the execution (cache
// guard, or every enabled thread asleep).
func (c *icbController) bporExtendThread(info sched.PickInfo) (sched.TID, bool) {
	x := c.bpor
	if info.PrevEnabled {
		// Preemptible point: the running thread continues. Plain ICB would
		// push every other enabled thread into the next bound here; the
		// reduction suppresses that entirely — the backtracking scans of
		// later conflicting steps (re)generate exactly the reorderings that
		// matter, with their conservative companions.
		pick := info.Prev
		o := pendingOp(info, pick)
		_, claimed := x.st.markScanned(x.key(sched.ThreadDecision(pick)))
		if !c.take(sched.ThreadDecision(pick), c.preempts) {
			return sched.NoTID, false
		}
		x.st.noteSuppressed(x.bound, int64(len(info.Enabled)-1))
		if claimed {
			c.bporBacktrack(pick, o)
		}
		x.record(info, pick, o, len(c.cur), c.preempts, c.stateFP())
		x.afterChoice(pick, o)
		c.cur = append(c.cur, sched.ThreadDecision(pick))
		x.note(sched.ThreadDecision(pick))
		return pick, true
	}
	// Free point: branch within the bound over the enabled threads that are
	// not asleep. A sleeping thread's first-step subtree is covered through
	// an earlier sibling, so it is neither picked nor pushed.
	pick := sched.NoTID
	for _, u := range info.Enabled {
		if !x.asleep(u) {
			pick = u
			break
		}
	}
	if pick == sched.NoTID {
		// Everything enabled is asleep. The execution itself is redundant
		// (trace-equivalent to ones explored through earlier siblings), but
		// cutting it here would be the classic sleep-set-blocking
		// unsoundness: the unexecuted suffix never runs its conflict scans,
		// so the backtracking items it would have emitted are lost for
		// good. Run the redundant execution to completion instead — its
		// scans keep the reduction's frontier complete — and only suppress
		// the sibling pushes.
		x.st.sleepBlocked.Add(1)
		pick = info.Enabled[0]
	}
	o := pendingOp(info, pick)
	seqTaken, claimed := x.st.markScanned(x.key(sched.ThreadDecision(pick)))
	if !c.take(sched.ThreadDecision(pick), c.preempts) {
		return sched.NoTID, false
	}
	suppressed := 0
	for i, u := range info.Enabled {
		if u == pick {
			continue
		}
		if x.asleep(u) {
			suppressed++
			continue
		}
		if s, isNew := x.st.register(x.key(sched.ThreadDecision(u))); !isNew {
			// Already taken or enqueued elsewhere in the search; siblings
			// registered before the pick sleep in its subtree like they
			// would during replay.
			if s < seqTaken {
				x.putToSleep(u, info.Ops[i])
			}
			continue
		}
		if c.push(sched.ThreadDecision(u), c.preempts) {
			x.st.noteEmitted(x.bound)
			c.onLocal(c.cur.Extend(sched.ThreadDecision(u)))
		}
	}
	x.st.noteSuppressed(x.bound, int64(suppressed))
	if claimed {
		c.bporBacktrack(pick, o)
	}
	x.record(info, pick, o, len(c.cur), c.preempts, c.stateFP())
	x.afterChoice(pick, o)
	c.cur = append(c.cur, sched.ThreadDecision(pick))
	x.note(sched.ThreadDecision(pick))
	return pick, true
}
