package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"icb/internal/hb"
	"icb/internal/obs"
	"icb/internal/obs/prof"
	"icb/internal/race"
	"icb/internal/sched"
)

// raceDetector is the common surface of the two detectors in package race.
type raceDetector interface {
	sched.Observer
	Reset()
	Racy() bool
	Reports() []race.Report
}

// Engine runs executions of one program on behalf of a search strategy and
// accumulates coverage, statistics and bugs. Strategies call RunExecution
// with a controller of their own and must stop when it reports done=true.
type Engine struct {
	prog sched.Program
	opt  Options

	// states and classes are plain StateSets for a one-worker engine and
	// lock-striped ShardedStateSets shared across every worker engine of a
	// multi-worker search (see ParallelICB).
	states  hb.Set
	classes hb.Set
	fp      *hb.Fingerprinter
	det     raceDetector
	// observers is the per-execution observer slice, built once and reused
	// across executions (its membership — fingerprinter plus optional race
	// detector — never changes within one engine's lifetime).
	observers []sched.Observer

	cache *Cache

	// bpor, when non-nil, is the search-global state of the bounded
	// partial-order reduction (Options.BPOR); shared by every worker engine
	// of a parallel search like the cache's table.
	bpor *bporState
	// bporX is this engine's per-execution reduction state, reset for
	// every execution so its buffers outlive it (see bporExec).
	bporX *bporExec

	// Multi-worker plumbing, all nil/negative on a one-worker engine so
	// the hot path pays one nil-check each. stop is the search-wide abort
	// flag shared by every worker (StopOnFirstBug, execution budget);
	// sharedExecs is the search-wide execution counter that numbers
	// executions globally and enforces MaxExecutions across workers; worker
	// is this engine's worker index for per-worker telemetry.
	stop        *atomic.Bool
	sharedExecs *atomic.Int64
	worker      int

	// Telemetry (package obs). sink, met and est are nil when disabled, so
	// the per-execution path pays one nil-check each and allocates nothing.
	sink obs.Sink
	met  *obs.Metrics
	est  obs.BranchObserver
	// curBound is the bound currently being drained (-1 outside bounds),
	// frontier the latest deferred-work-item count reported by the strategy.
	curBound        int
	frontier        int
	boundStart      time.Time
	boundStartExecs int

	// Search profiler (nil when off). profObservers is the sampled-execution
	// observer slice: the regular observers wrapped in timing shims;
	// profExecs counts this engine's executions for the sampling decision;
	// fpNS/raceNS/cacheProbeNS are the sampled execution's per-phase
	// scratch accumulators (single-goroutine, flushed after each sampled
	// run); classesAtBound and profBoundOpen drive the per-bound redundancy
	// flush.
	prof           *prof.Profiler
	profObservers  []sched.Observer
	profExecs      int
	fpNS           int64
	raceNS         int64
	cacheProbeNS   int64
	classesAtBound int
	profBoundOpen  bool

	res     Result
	bugSeen map[bugKey]int // index into res.Bugs, for deduplication
	done    bool
	// ckptSeq numbers the checkpoints captured this process life (for the
	// event stream; the on-disk ordinal is the journal writer's).
	ckptSeq int

	// Work-stealing plumbing of a worker engine at two workers or more (see
	// ParallelICB). early marks that the current execution runs ahead of
	// the softened bound barrier (its bound has not started retiring), so
	// bug sightings are diverted into held instead of being filed: filing
	// them now could misreport a non-minimal preemption count or halt a
	// StopOnFirstBug search before all lower-bound executions ran. heldSeen
	// dedups within held. probes is this worker's batched state-set
	// front-end, flushed at execution ends and safepoints so set counts are
	// exact whenever the search reads them.
	early    bool
	held     []HeldBug
	heldSeen map[bugKey]int
	probes   *hb.ProbeBuffer
}

// bugKey identifies a defect for deduplication across executions.
type bugKey struct {
	kind BugKind
	msg  string
}

// NewEngine prepares an engine for prog under opt.
func NewEngine(prog sched.Program, opt Options) *Engine {
	e := &Engine{
		prog:     prog,
		opt:      opt,
		states:   hb.NewStateSet(),
		classes:  hb.NewStateSet(),
		sink:     opt.Sink,
		met:      opt.Metrics,
		est:      opt.Estimator,
		curBound: -1,
		worker:   -1,
		prof:     opt.Profiler,
	}
	e.fp = hb.NewFingerprinter(func(s uint64) { e.states.Add(s) })
	if opt.StateCache {
		e.cache = newCache(e.fp)
		e.cache.sink = e.sink
		e.cache.met = e.met
	}
	if opt.BPOR {
		e.bpor = newBPORState()
	}
	if e.met != nil {
		e.met.CurBound.Store(-1)
		if e.prof != nil {
			e.met.SetProfile(e.prof)
		}
	}
	// An external stop flag (signal handling) rides the same plumbing as the
	// parallel search-wide abort; ParallelICB later shares this exact flag
	// with every worker engine.
	if opt.Stop != nil {
		e.stop = opt.Stop
	}
	e.initExec()
	e.res.BoundCompleted = -1
	if opt.Resume != nil {
		e.importState(opt.Resume)
	}
	return e
}

// initExec builds the per-execution machinery that depends only on the
// options: the race detector and the reusable observer slice.
func (e *Engine) initExec() {
	if e.opt.CheckRaces {
		if e.opt.UseGoldilocks {
			e.det = race.NewGoldilocks()
		} else {
			e.det = race.NewDetector()
		}
	}
	e.observers = append(e.observers, e.fp)
	if e.det != nil {
		e.observers = append(e.observers, e.det)
	}
	if e.prof != nil {
		// The sampled-execution observer is one timing shim over the members
		// of e.observers, in order, so a sampled execution observes the
		// exact same event stream (the shim forwards OnChoice too — dropping
		// it would change fingerprints and break cache soundness).
		shim := &timedObservers{inner: []sched.Observer{e.fp}, ns: []*int64{&e.fpNS}}
		if e.det != nil {
			shim.inner = append(shim.inner, e.det)
			shim.ns = append(shim.ns, &e.raceNS)
		}
		e.profObservers = []sched.Observer{shim}
	}
}

// timedObservers forwards every observation to each inner observer in
// order, accumulating the time spent inside inner[i] into *ns[i].
// Installed only on sampled executions. Clock readings dominate its cost,
// so they are chained (the reading that ends one observer's span starts
// the next one's) and monotonic-only: len(inner)+1 readings per event.
type timedObservers struct {
	inner []sched.Observer
	ns    []*int64
}

// monoEpoch anchors monoNS. time.Since on a reading that carries a
// monotonic clock reads only the monotonic clock; time.Now also reads the
// wall clock.
var monoEpoch = time.Now()

func monoNS() int64 { return int64(time.Since(monoEpoch)) }

// OnEvent implements sched.Observer.
func (t *timedObservers) OnEvent(ev sched.Event) {
	t0 := monoNS()
	for i, o := range t.inner {
		o.OnEvent(ev)
		t1 := monoNS()
		*t.ns[i] += t1 - t0
		t0 = t1
	}
}

// OnChoice implements sched.ChoiceObserver by forwarding to the inner
// observers that implement it (and only those), preserving their view of
// data choices.
func (t *timedObservers) OnChoice(tid sched.TID, n, v int) {
	for i, o := range t.inner {
		if co, ok := o.(sched.ChoiceObserver); ok {
			t0 := monoNS()
			co.OnChoice(tid, n, v)
			*t.ns[i] += monoNS() - t0
		}
	}
}

// Strategy is a search strategy: ICB (this package) or one of the
// baselines (package baseline). Explore drives the engine until either the
// strategy's frontier is exhausted (set Result.Exhausted via MarkExhausted)
// or the engine reports done.
type Strategy interface {
	// Name identifies the strategy in results and experiment tables.
	Name() string
	// Explore runs the search.
	Explore(e *Engine)
}

// Explore runs strategy s on prog and returns the accumulated result.
func Explore(prog sched.Program, s Strategy, opt Options) Result {
	e := NewEngine(prog, opt)
	if e.prof != nil {
		e.prof.Begin()
	}
	// A resumed engine carries the prior process lives' wall time in
	// res.Duration (restored by importState); the total keeps accumulating.
	base := e.res.Duration
	start := time.Now()
	s.Explore(e)
	e.res.Duration = base + time.Since(start)
	e.res.Strategy = s.Name()
	e.res.States = e.states.Len()
	e.res.ExecutionClasses = e.classes.Len()
	if e.cache != nil {
		e.res.CacheHits = e.cache.Hits()
		e.res.CacheMisses = e.cache.Misses()
	}
	if e.prof != nil {
		e.flushProfBound()
		if e.sink != nil {
			e.sink.Profile(obs.ProfileEvent{Profile: e.prof.Profile()})
		}
	}
	if e.bpor != nil {
		e.res.BPOR = true
		e.res.BPORPruned = e.bpor.netTotal()
		if e.sink != nil {
			e.sink.BPORStats(e.bpor.statsEvent(e.res.Executions))
		}
	}
	if e.sink != nil {
		e.sink.SearchDone(obs.SearchEvent{
			Strategy:       e.res.Strategy,
			Executions:     e.res.Executions,
			States:         e.res.States,
			Classes:        e.res.ExecutionClasses,
			Bugs:           len(e.res.Bugs),
			BoundCompleted: e.res.BoundCompleted,
			Exhausted:      e.res.Exhausted,
			DurationNS:     e.res.Duration.Nanoseconds(),
			CacheHits:      int64(e.res.CacheHits),
			CacheMisses:    int64(e.res.CacheMisses),
		})
	}
	return e.res
}

// Done reports whether the strategy must stop (budget exhausted or a bug
// found under StopOnFirstBug). For a worker engine of a parallel search it
// also observes the search-wide stop flag, so every worker drains out as
// soon as any one of them must stop.
func (e *Engine) Done() bool {
	return e.done || (e.stop != nil && e.stop.Load())
}

// halt records that this engine must stop and, in a parallel search,
// broadcasts the stop to every sibling worker.
func (e *Engine) halt() {
	e.done = true
	if e.stop != nil {
		e.stop.Store(true)
	}
}

// MarkExhausted records that the strategy fully explored its search space.
func (e *Engine) MarkExhausted() { e.res.Exhausted = true }

// flushProbes drains this engine's batched state-set probes, if any. Called
// at execution ends and before parking so that set counts are exact at
// every point the search reads them.
func (e *Engine) flushProbes() {
	if e.probes != nil {
		e.probes.Flush()
	}
}

// SetBoundCompleted records the highest fully-explored preemption bound and
// appends a per-bound coverage sample. It also closes out the bound's
// telemetry (see CompleteBound).
func (e *Engine) SetBoundCompleted(bound int) {
	e.res.BoundCompleted = bound
	e.res.BoundCurve = append(e.res.BoundCurve, BoundCoverage{
		Bound:      bound,
		States:     e.states.Len(),
		Executions: e.res.Executions,
	})
	e.CompleteBound(bound)
}

// BeginBound marks the start of one bound (or depth round) holding queue
// work items: per-bound timing starts and a BoundStart event is emitted.
// Strategies without bound structure never call it.
func (e *Engine) BeginBound(bound, queue int) {
	e.curBound = bound
	e.frontier = queue
	e.boundStart = time.Now()
	e.boundStartExecs = e.res.Executions
	if e.prof != nil {
		e.classesAtBound = e.classes.Len()
		e.profBoundOpen = true
	}
	if e.met != nil {
		e.met.CurBound.Store(int64(bound))
		e.met.QueueDepth.Store(int64(queue))
	}
	if e.sink != nil {
		e.sink.BoundStart(obs.BoundEvent{
			Bound:      bound,
			Queue:      queue,
			Executions: e.res.Executions,
			States:     e.states.Len(),
		})
	}
}

// CompleteBound closes out one bound's telemetry: it appends a BoundStat
// with the bound's execution count and wall time and emits BoundComplete.
// Unlike SetBoundCompleted it makes no coverage-guarantee claim, so
// iterative depth bounding uses it for its depth rounds.
func (e *Engine) CompleteBound(bound int) {
	var d time.Duration
	if !e.boundStart.IsZero() {
		d = time.Since(e.boundStart)
	}
	e.res.BoundStats = append(e.res.BoundStats, BoundStat{
		Bound:         bound,
		Executions:    e.res.Executions - e.boundStartExecs,
		CumExecutions: e.res.Executions,
		States:        e.states.Len(),
		Duration:      d,
	})
	if e.met != nil {
		e.met.ObserveBoundTime(bound, d.Nanoseconds())
	}
	if e.prof != nil && e.profBoundOpen {
		e.prof.NoteBound(bound,
			int64(e.res.Executions-e.boundStartExecs),
			int64(e.classes.Len()-e.classesAtBound),
			d.Nanoseconds())
		if e.bpor != nil {
			e.prof.NotePruned(bound, e.bpor.prunedNet(bound))
		}
		e.profBoundOpen = false
	}
	if e.sink != nil {
		e.sink.BoundComplete(obs.BoundEvent{
			Bound:      bound,
			Frontier:   e.frontier,
			Executions: e.res.Executions,
			States:     e.states.Len(),
			DurationNS: d.Nanoseconds(),
		})
	}
}

// flushProfBound closes the profiler's redundancy accounting for a bound
// the strategy never completed (budget cut, StopOnFirstBug): without it a
// search stopped mid-bound would lose every execution since the last bound
// barrier. Called once at search end; a no-op when the last bound was
// completed normally.
func (e *Engine) flushProfBound() {
	if e.prof == nil || !e.profBoundOpen || e.curBound < 0 {
		return
	}
	e.prof.NoteBound(e.curBound,
		int64(e.res.Executions-e.boundStartExecs),
		int64(e.classes.Len()-e.classesAtBound),
		time.Since(e.boundStart).Nanoseconds())
	if e.bpor != nil {
		e.prof.NotePruned(e.curBound, e.bpor.prunedNet(e.curBound))
	}
	e.profBoundOpen = false
}

// NoteFrontier reports the strategy's current deferred-work-item count, so
// progress reports can show how much work remains. Cheap: two stores and a
// nil-check.
func (e *Engine) NoteFrontier(n int) {
	e.frontier = n
	if e.met != nil {
		e.met.QueueDepth.Store(int64(n))
	}
}

// NoteWork reports the strategy's work-item progress within the current
// bound: done of total seed schedules have been fully explored. It feeds
// the schedule-space estimator's executions-per-seed model; a no-op when
// no estimator is attached.
func (e *Engine) NoteWork(done, total int) {
	if e.est != nil {
		e.est.NoteWork(e.curBound, done, total)
	}
}

// States returns the current number of distinct visited states.
func (e *Engine) States() int { return e.states.Len() }

// Executions returns the number of executions run so far.
func (e *Engine) Executions() int { return e.res.Executions }

// Options returns the exploration options.
func (e *Engine) Options() Options { return e.opt }

// Cache returns the work-item table, or nil when caching is disabled.
func (e *Engine) Cache() *Cache { return e.cache }

// bporExec returns the engine's per-execution reduction state, reset for
// an execution at the given bound. An engine runs one execution at a time,
// so the previous execution's state is finished with by then.
func (e *Engine) bporExec(bound int) *bporExec {
	if e.bporX == nil {
		e.bporX = &bporExec{st: e.bpor}
	}
	e.bporX.reset(bound)
	return e.bporX
}

// RunExecution runs one execution of the program under ctrl, records its
// coverage and statistics, files any bug, and returns the outcome. done
// reports that the strategy must stop.
func (e *Engine) RunExecution(ctrl sched.Controller) (out sched.Outcome, done bool) {
	if e.Done() {
		return sched.Outcome{Status: sched.StatusStopped}, true
	}
	e.fp.Reset()
	if e.det != nil {
		e.det.Reset()
	}
	// Profiling setup must inspect ctrl before the estimator wraps it: the
	// replay/explore split marker lives on the ICB controller itself.
	var (
		profStart   time.Time
		profSampled bool
		profICB     *icbController
	)
	observers := e.observers
	if e.prof != nil {
		e.profExecs++
		profSampled = e.prof.Sampled(e.profExecs)
		if ic, ok := ctrl.(*icbController); ok {
			ic.profClock = true
			profICB = ic
		}
		if profSampled {
			e.fpNS, e.raceNS, e.cacheProbeNS = 0, 0, 0
			observers = e.profObservers
			if e.cache != nil {
				e.cache.probeNS = &e.cacheProbeNS
			}
		}
	}
	if e.est != nil {
		ctrl = &branchController{inner: ctrl, est: e.est, bound: e.curBound}
	}
	cfg := sched.Config{
		Mode:      e.opt.Mode,
		MaxSteps:  e.opt.MaxSteps,
		Observers: observers,
	}
	if e.opt.Coverage != nil {
		cfg.PointObserver = &pointForwarder{rec: e.opt.Coverage, bound: e.curBound}
	}
	if e.opt.TraceObserver != nil {
		cfg.RecordTrace = true
	}
	if e.prof != nil {
		profStart = time.Now()
	}
	out = sched.Run(e.prog, ctrl, cfg)
	if e.prof != nil {
		total := time.Since(profStart).Nanoseconds()
		var replay int64
		if profICB != nil {
			if !profICB.replayDoneAt.IsZero() {
				replay = profICB.replayDoneAt.Sub(profStart).Nanoseconds()
			} else if len(profICB.path) > 0 {
				// The execution never reached a decision past its replayed
				// prefix (cut during replay or ended exactly at its end).
				replay = total
			}
			if replay < 0 {
				replay = 0
			}
			if replay > total {
				replay = total
			}
		}
		e.prof.ObserveExec(e.curBound, replay, total-replay)
		if profSampled {
			if e.cache != nil {
				e.cache.probeNS = nil
			}
			e.prof.ObserveSampled(e.curBound, e.fpNS, e.raceNS, e.cacheProbeNS)
		}
	}
	e.res.Executions++
	// execNo is the search-global 1-based execution index: the local count
	// for a one-worker engine, a shared atomic for parallel workers (so bug
	// reports, events and the budget see one consistent numbering).
	execNo := e.res.Executions
	if e.sharedExecs != nil {
		execNo = int(e.sharedExecs.Add(1))
	}
	if e.opt.TraceObserver != nil {
		e.opt.TraceObserver.ObserveOutcome(execNo, out)
	}
	if out.Status != sched.StatusStopped {
		// Cut executions (cache hits, depth bounds) are prefixes of
		// executions counted elsewhere; only completed runs define
		// partial-order execution classes.
		e.classes.Add(e.fp.Fingerprint())
	}

	if out.Steps > e.res.MaxSteps {
		e.res.MaxSteps = out.Steps
	}
	if out.Blocking > e.res.MaxBlocking {
		e.res.MaxBlocking = out.Blocking
	}
	if out.Preemptions > e.res.MaxPreemptions {
		e.res.MaxPreemptions = out.Preemptions
	}

	if e.opt.SampleEvery <= 1 || execNo%e.opt.SampleEvery == 0 {
		e.res.Curve = append(e.res.Curve, CoveragePoint{
			Executions: execNo,
			States:     e.states.Len(),
		})
	}

	if e.met != nil {
		e.met.ObserveExecution(e.curBound)
		if e.worker >= 0 {
			e.met.ObserveWorkerExecution(e.worker)
		}
		e.met.States.Store(int64(e.states.Len()))
		e.met.Classes.Store(int64(e.classes.Len()))
	}
	if e.sink != nil {
		e.sink.ExecutionDone(obs.ExecutionEvent{
			Execution:   execNo,
			Status:      out.Status.String(),
			Steps:       out.Steps,
			Preemptions: out.Preemptions,
			States:      e.states.Len(),
			Classes:     e.classes.Len(),
			Bound:       e.curBound,
			Frontier:    e.frontier,
		})
	}

	e.recordBugs(out, execNo)

	if out.Status == sched.StatusReplayDiverged {
		// Nondeterminism outside the scheduler invalidates the whole
		// search; surface it loudly.
		panic(fmt.Sprintf("core: %s", out.Message))
	}

	if e.opt.MaxExecutions > 0 && execNo >= e.opt.MaxExecutions {
		e.halt()
	}
	return out, e.Done()
}

// branchController instruments a strategy's controller with the
// schedule-space estimator's sampling hook: before delegating each pick it
// reports the number of alternatives the current bound admits at that
// decision point. Within a preemption bound, scheduling any thread other
// than a still-enabled running thread costs a preemption (Algorithm 1
// defers those branches to the next bound), so the within-bound width at a
// preemptible point is 1; at a voluntary switch it is the enabled-set
// size; at a data-choice point it is the choice arity. For strategies that
// branch at every point (dfs, idfs) this undercounts, making their
// estimates conservative lower bounds.
type branchController struct {
	inner sched.Controller
	est   obs.BranchObserver
	bound int
	depth int
}

// PickThread implements sched.Controller.
func (b *branchController) PickThread(info sched.PickInfo) (sched.TID, bool) {
	width := 1
	if !info.PrevEnabled {
		width = len(info.Enabled)
	}
	b.est.NoteBranch(b.depth, width, b.bound)
	b.depth++
	return b.inner.PickThread(info)
}

// PickData implements sched.Controller.
func (b *branchController) PickData(t sched.TID, n int) int {
	b.est.NoteBranch(b.depth, n, b.bound)
	b.depth++
	return b.inner.PickData(t, n)
}

// pointForwarder adapts a sched.PointObserver installation to the engine's
// PointRecorder, attributing each observation to the bound the execution
// runs under. One is built per execution so the bound is fixed for its
// lifetime.
type pointForwarder struct {
	rec   PointRecorder
	bound int
}

// OnPoint implements sched.PointObserver.
func (p *pointForwarder) OnPoint(pi sched.PointInfo) {
	p.rec.RecordPoint(p.bound, pi)
}

// recordBugs files bugs for a completed execution. A defect already seen
// (same kind and message) only bumps its count: an exhaustive search of a
// buggy program encounters the same failure along many interleavings and
// must not accumulate one report per execution. The exposing schedule is
// cloned (and rendered for the event stream) only on the first sighting —
// a count bump must stay allocation-free.
func (e *Engine) recordBugs(out sched.Outcome, execNo int) {
	file := func(kind BugKind, msg string) {
		if e.bugSeen == nil {
			e.bugSeen = make(map[bugKey]int)
		}
		k := bugKey{kind: kind, msg: msg}
		if e.early {
			// Softened-barrier holdback: this execution ran ahead of the
			// bound barrier, so its sighting may not be minimal yet. A bug
			// already filed at a lower (retired) bound just counts one more
			// exposing execution; anything else is held back, to be merged
			// (or discarded into the checkpoint) when this bound retires.
			// Never halt here, even under StopOnFirstBug: lower-bound
			// executions are still outstanding and one of them may expose a
			// bug with fewer preemptions.
			if i, seen := e.bugSeen[k]; seen {
				e.res.Bugs[i].Count++
				return
			}
			if i, seen := e.heldSeen[k]; seen {
				e.held[i].Bug.Count++
				return
			}
			if e.heldSeen == nil {
				e.heldSeen = make(map[bugKey]int)
			}
			e.heldSeen[k] = len(e.held)
			e.held = append(e.held, HeldBug{
				Bound: e.curBound,
				Bug: Bug{
					Kind:            kind,
					Message:         msg,
					Preemptions:     out.Preemptions,
					ContextSwitches: out.ContextSwitches,
					Steps:           out.Steps,
					Execution:       execNo,
					Schedule:        out.Decisions.Clone(),
					Count:           1,
				},
			})
			return
		}
		if i, seen := e.bugSeen[k]; seen {
			e.res.Bugs[i].Count++
			if e.opt.StopOnFirstBug {
				e.halt()
			}
			return
		}
		e.bugSeen[k] = len(e.res.Bugs)
		e.res.Bugs = append(e.res.Bugs, Bug{
			Kind:            kind,
			Message:         msg,
			Preemptions:     out.Preemptions,
			ContextSwitches: out.ContextSwitches,
			Steps:           out.Steps,
			Execution:       execNo,
			Schedule:        out.Decisions.Clone(),
			Count:           1,
		})
		if e.met != nil {
			e.met.Bugs.Add(1)
		}
		if e.prof != nil {
			e.prof.NoteFirstBug(kind.String(), msg, execNo, e.curBound)
		}
		if e.sink != nil {
			e.sink.BugFound(obs.BugEvent{
				Kind:        kind.String(),
				Message:     msg,
				Preemptions: out.Preemptions,
				Execution:   execNo,
				Schedule:    out.Decisions.String(),
				Steps:       out.Steps,
			})
		}
		if e.opt.StopOnFirstBug {
			e.halt()
		}
	}
	if kind, msg, ok := ClassifyOutcome(out); ok {
		file(kind, msg)
	}
	if e.det != nil && e.det.Racy() {
		file(BugRace, e.det.Reports()[0].String())
	}
}
