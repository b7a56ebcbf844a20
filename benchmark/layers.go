package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"icb/internal/core"
	"icb/internal/hb"
	"icb/internal/obs/prof"
	"icb/internal/race"
	"icb/internal/sched"
)

// Shares of --seconds the traced run's timed phases get: passes with
// tracing off, passes with it on, and the layer loops. The comparison
// passes run once each on top.
const (
	untracedShare = 0.25
	tracedShare   = 0.25
	layerShare    = 0.2
)

// recordsPerSearch is about how many executions of each traced search are
// kept for the layer loops; keeping every k-th bounds memory on Dryad.
const recordsPerSearch = 200

// recorded is one execution kept for the layer loops.
type recorded struct {
	decisions   sched.Schedule
	trace       []sched.Event
	preempted   []int
	steps       int
	preemptions int
}

// recorder is the traced search's core.OutcomeObserver. Workers of a
// parallel search call it concurrently.
type recorder struct {
	every  int
	search int
	mu     sync.Mutex
	execs  []recorded
}

// ObserveOutcome implements core.OutcomeObserver.
func (r *recorder) ObserveOutcome(execution int, out sched.Outcome) {
	if execution%r.every != 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.execs = append(r.execs, recorded{
		decisions:   out.Decisions.Clone(),
		trace:       out.Trace,
		preempted:   out.PreemptedSteps,
		steps:       out.Steps,
		preemptions: out.Preemptions,
	})
}

// summary is a configuration's cost per pass: median wall seconds and
// executions, and the first pass's records.
type summary struct {
	wall, execs float64
	recs        []record
}

func summarize(ps []pass) summary {
	var walls, execs []float64
	for _, p := range ps {
		walls = append(walls, p.wall.Seconds())
		execs = append(execs, float64(p.executions()))
	}
	return summary{wall: median(walls), execs: median(execs), recs: ps[0].recs}
}

// rate is the median per-pass execution rate.
func rate(ps []pass) float64 {
	var rates []float64
	for _, p := range ps {
		rates = append(rates, float64(p.executions())/p.wall.Seconds())
	}
	return median(rates)
}

// traced is the per-layer run. It times the workload's passes with tracing
// off and on, runs the comparison passes (partial-order reduction flipped;
// one and two workers), and then times each layer's public entry points in
// bulk on the executions the traced passes recorded.
func (c *child) traced() childOutput {
	tr := newTracer()
	own := c.config
	root := tr.begin("workload", 0, 0)

	ph := tr.begin("untraced", root, 0)
	gc0, cpu0, allocs0 := readRuntime()
	base := c.passes(own, c.seconds(untracedShare), nil, 0, passOptions{})
	gc1, cpu1, allocs1 := readRuntime()
	tr.end(ph)
	plain := summarize(base)

	every := make([]int, len(c.progs))
	for i := range every {
		every[i] = 1
	}
	for _, r := range plain.recs {
		every[r.Prog] = max(1, r.Executions/recordsPerSearch)
	}
	ownProf := prof.New(0)
	recs := make(map[int]*recorder)
	ph = tr.begin("traced", root, 0)
	tracedPasses := c.passes(own, c.seconds(tracedShare), tr, ph, passOptions{prof: ownProf, record: recs, every: every})
	tr.end(ph)

	compare := func(name string, cfg searchConfig, p *prof.Profiler) pass {
		ph := tr.begin(name, root, 0)
		defer tr.end(ph)
		return c.runPass(cfg, tr, ph, passOptions{prof: p})
	}
	flipped := own
	flipped.BPOR = !own.BPOR
	bporOff, bporOn := plain, summarize([]pass{compare("compare-bpor", flipped, nil)})
	if own.BPOR {
		bporOff, bporOn = bporOn, bporOff
	}
	seq, par := own, own
	seq.Workers, par.Workers = 1, 2
	w1, w2 := plain, plain
	parProf, parProfWall := ownProf, 0.0
	if seq != own {
		w1 = summarize([]pass{compare("compare-w1", seq, nil)})
		for _, p := range tracedPasses {
			parProfWall += p.wall.Seconds()
		}
	} else {
		parProf = prof.New(0)
		w2 = summarize([]pass{compare("compare-w2", par, parProf)})
		parProfWall = w2.wall
	}

	costs := c.layers(recs, tr, root)
	var total layerCosts
	for _, lc := range costs {
		total.add(lc)
	}
	m := metricSet{}
	layerMetrics(m, total, recs)
	m.value("core.search_fixed_us", c.searchFixed(own, costs, tr, root))
	m.value("core.self_ns_per_exec", coreSelf(w1, costs, recs))

	var hits, misses, classes, execs int
	for _, r := range plain.recs {
		hits, misses = hits+r.CacheHits, misses+r.CacheMisses
		classes, execs = classes+r.Classes, execs+r.Executions
	}
	m.value("core.cache_hit_frac", ratio(float64(hits), float64(hits+misses)))
	m.value("core.redundant_frac", 1-ratio(float64(classes), float64(execs)))

	var pruned int64
	for _, r := range bporOn.recs {
		pruned += r.Pruned
	}
	m.value("bpor.pruned", float64(pruned))
	m.value("bpor.exec_saved_frac", 1-bporOn.execs/bporOff.execs)
	m.value("bpor.self_ns_per_exec", (bporOn.wall/bporOn.execs-bporOff.wall/bporOff.execs)*1e9)
	m.value("bpor.wall_ratio", bporOn.wall/bporOff.wall)

	var steals, fails, idleNS, lockNS int64
	for _, w := range parProf.Profile().Workers {
		steals, fails = steals+w.Steals, fails+w.StealFails
		idleNS += w.IdleNS + w.BarrierWaitNS
		lockNS += w.StateLockWaitNS + w.TableLockWaitNS
	}
	workerNS := parProfWall * 1e9 * float64(par.Workers)
	m.value("parallel.speedup_2w", w1.wall/w2.wall)
	m.value("parallel.exec_overshoot_frac", w2.execs/w1.execs-1)
	m.value("parallel.steals", float64(steals))
	m.value("parallel.steal_fail_frac", ratio(float64(fails), float64(steals+fails)))
	m.value("parallel.idle_frac", float64(idleNS)/workerNS)
	m.value("parallel.lock_wait_frac", float64(lockNS)/workerNS)

	var baseExecs int
	for _, p := range base {
		baseExecs += p.executions()
	}
	m.value("runtime.gc_cpu_frac", ratio(gc1-gc0, cpu1-cpu0))
	m.value("runtime.allocs_per_exec", float64(allocs1-allocs0)/float64(baseExecs))
	m.value("trace.overhead_frac", rate(base)/rate(tracedPasses)-1)

	tr.end(root)
	return childOutput{Metrics: m, Spans: tr.spans}
}

// ratio is a/b, or 0 when there is nothing to divide.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// readRuntime reads the Go runtime's cumulative GC CPU time, total CPU time
// and heap allocation count.
func readRuntime() (gcCPU, totalCPU float64, allocs uint64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:objects"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64(), s[2].Value.Uint64()
}

// cost accumulates bulk-timed calls into one layer: nanoseconds and the
// units of work (steps, events, adds, probes) they covered.
type cost struct {
	ns, units int64
}

func (c cost) per() float64 { return float64(c.ns) / float64(c.units) }

func (c *cost) add(o cost) { c.ns, c.units = c.ns+o.ns, c.units+o.units }

// layerCosts are the layer loops' totals for one program, or summed over
// programs. adds counts the fingerprints one repetition feeds a state set,
// newStates those it found new.
type layerCosts struct {
	replay, fp, race, set, sharded, cache cost
	mallocs, bytes                        uint64
	adds, newStates                       int64
}

func (l *layerCosts) add(o layerCosts) {
	l.replay.add(o.replay)
	l.fp.add(o.fp)
	l.race.add(o.race)
	l.set.add(o.set)
	l.sharded.add(o.sharded)
	l.cache.add(o.cache)
	l.mallocs, l.bytes = l.mallocs+o.mallocs, l.bytes+o.bytes
	l.adds, l.newStates = l.adds+o.adds, l.newStates+o.newStates
}

// perStep is what one step of a sequential search costs below core:
// running it, fingerprinting it, race-checking it and adding its state.
func (l layerCosts) perStep() float64 {
	return l.replay.per() + l.fp.per() + l.race.per() + l.set.per()
}

// repeat runs prep (untimed, unless nil) and body (timed) until body has
// run for at least d in total, and at least once. It returns body's total
// time and the number of repetitions.
func repeat(d time.Duration, prep, body func()) (ns int64, reps int64) {
	for reps == 0 || time.Duration(ns) < d {
		if prep != nil {
			prep()
		}
		t0 := time.Now()
		body()
		ns += time.Since(t0).Nanoseconds()
		reps++
	}
	return ns, reps
}

// probeKey is one work-item-table lookup as the search makes it: the state
// reached, the decision about to be taken there, and the preemptions spent.
type probeKey struct {
	state    uint64
	d        sched.Decision
	preempts int
}

// layers times each layer below core on the recorded executions, program
// by program: sched.Run replaying their schedules with no observers, the
// fingerprinter and the race detector fed their events, both state sets
// fed the fingerprints those events produce, and the work-item table
// probed with the keys the search would use.
func (c *child) layers(recs map[int]*recorder, tr *tracer, parent int) map[int]layerCosts {
	defer withProcs(1)()
	costs := make(map[int]layerCosts, len(recs))
	progs := make([]int, 0, len(recs))
	for i := range recs {
		progs = append(progs, i)
	}
	sort.Ints(progs)
	per := c.seconds(layerShare) / time.Duration(6*len(progs))
	for _, i := range progs {
		r, prog := recs[i], c.progs[i]
		if len(r.execs) == 0 {
			continue
		}
		var lc layerCosts
		ls := tr.begin("layers", parent, r.search)
		loop := func(name string, prep, body func()) (int64, int64) {
			sp := tr.begin(name, ls, r.search)
			defer tr.end(sp)
			return repeat(per, prep, body)
		}
		var events int64
		for _, e := range r.execs {
			events += int64(len(e.trace))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var replayed int64
		ns, _ := loop("replay", nil, func() {
			for _, e := range r.execs {
				ctrl := &sched.ReplayController{Prefix: e.decisions, Tail: sched.FirstEnabled{}}
				replayed += int64(sched.Run(prog, ctrl, sched.Config{}).Steps)
			}
		})
		runtime.ReadMemStats(&after)
		lc.replay = cost{ns, replayed}
		lc.mallocs, lc.bytes = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc

		fp := hb.NewFingerprinter(nil)
		ns, reps := loop("fingerprint", nil, func() {
			for _, e := range r.execs {
				fp.Reset()
				for _, ev := range e.trace {
					fp.OnEvent(ev)
				}
			}
		})
		lc.fp = cost{ns, reps * events}

		det := race.NewDetector()
		ns, reps = loop("race", nil, func() {
			for _, e := range r.execs {
				det.Reset()
				for _, ev := range e.trace {
					det.OnEvent(ev)
				}
			}
		})
		lc.race = cost{ns, reps * events}

		states, probes := stateKeys(r.execs)
		var set *hb.StateSet
		ns, reps = loop("stateset", func() { set = hb.NewStateSet() }, func() {
			for _, s := range states {
				set.Add(s)
			}
		})
		lc.set = cost{ns, reps * int64(len(states))}
		lc.adds, lc.newStates = int64(len(states)), int64(set.Len())

		var sharded *hb.ShardedStateSet
		ns, reps = loop("sharded", func() { sharded = hb.NewShardedStateSet() }, func() {
			for _, s := range states {
				sharded.Add(s)
			}
		})
		lc.sharded = cost{ns, reps * int64(len(states))}

		var cache *core.Cache
		ns, reps = loop("cache", func() { cache = core.NewEngine(prog, core.Options{StateCache: true}).Cache() }, func() {
			for _, k := range probes {
				cache.TryTakeAt(k.state, k.d, k.preempts)
			}
		})
		lc.cache = cost{ns, reps * int64(len(probes))}
		tr.end(ls)
		costs[i] = lc
	}
	return costs
}

// stateKeys derives from recorded executions the fingerprint stream a
// search feeds its state set, and the work-item-table keys it probes.
func stateKeys(execs []recorded) (states []uint64, probes []probeKey) {
	fp := hb.NewFingerprinter(func(s uint64) { states = append(states, s) })
	for _, e := range execs {
		fp.Reset()
		spent := 0
		for _, ev := range e.trace {
			for spent < len(e.preempted) && e.preempted[spent] < ev.Step {
				spent++
			}
			probes = append(probes, probeKey{fp.Fingerprint(), sched.ThreadDecision(ev.TID), spent})
			fp.OnEvent(ev)
		}
	}
	return states, probes
}

// layerMetrics files the metrics that come straight from the layer loops
// and the recorded executions.
func layerMetrics(m metricSet, lc layerCosts, recs map[int]*recorder) {
	var n, steps, preemptions int64
	for _, r := range recs {
		for _, e := range r.execs {
			n++
			steps += int64(e.steps)
			preemptions += int64(e.preemptions)
		}
	}
	m.value("sched.ns_per_step", lc.replay.per())
	m.value("sched.allocs_per_step", float64(lc.mallocs)/float64(lc.replay.units))
	m.value("sched.bytes_per_step", float64(lc.bytes)/float64(lc.replay.units))
	m.value("sched.steps_per_exec", float64(steps)/float64(n))
	m.value("sched.preemptions_per_exec", float64(preemptions)/float64(n))
	m.value("hb.fp_ns_per_event", lc.fp.per())
	m.value("hb.stateset_ns_per_add", lc.set.per())
	m.value("hb.sharded_ns_per_add", lc.sharded.per())
	m.value("race.vc_ns_per_event", lc.race.per())
	m.value("core.cache_ns_per_probe", lc.cache.per())
	m.value("hb.stateset_new_frac", ratio(float64(lc.newStates), float64(lc.adds)))
}

// coreSelf is core's own cost per execution: the sequential search's wall
// time per execution, minus what its executions cost below core, program
// by program: each program's recorded steps at that program's per-step
// cost, and its work-item-table probes. Per-step costs differ between
// programs (a short execution pays the scheduler's per-run set-up over few
// steps), so one pooled figure would misattribute them.
func coreSelf(w1 summary, costs map[int]layerCosts, recs map[int]*recorder) float64 {
	var below float64
	for _, r := range w1.recs {
		lc, ok := costs[r.Prog]
		if !ok {
			continue
		}
		below += float64(r.Executions)*recs[r.Prog].meanSteps()*lc.perStep() +
			float64(r.CacheHits+r.CacheMisses)*lc.cache.per()
	}
	return (w1.wall*1e9 - below) / w1.execs
}

// meanSteps is the mean length of the recorded executions.
func (r *recorder) meanSteps() float64 {
	var steps int
	for _, e := range r.execs {
		steps += e.steps
	}
	return float64(steps) / float64(len(r.execs))
}

// searchFixed is the per-search fixed cost in microseconds: the median
// over programs of a one-execution search's wall time, minus what that
// execution costs below core.
func (c *child) searchFixed(cfg searchConfig, costs map[int]layerCosts, tr *tracer, parent int) float64 {
	defer withProcs(cfg.Workers)()
	per := c.seconds(layerShare) / time.Duration(6*len(c.progs))
	fixed := make([]float64, 0, len(c.progs))
	for i, prog := range c.progs {
		lc, ok := costs[i]
		if !ok {
			continue
		}
		steps := sched.Run(prog, sched.FirstEnabled{}, sched.Config{}).Steps
		opt := cfg.options(c.in.Programs[i].Bound)
		opt.MaxExecutions = 1
		sp := tr.begin("search-fixed", parent, 0)
		ns, reps := repeat(per, nil, func() { core.Explore(prog, cfg.strategy(), opt) })
		tr.end(sp)
		fixed = append(fixed, (float64(ns)/float64(reps)-float64(steps)*lc.perStep())/1e3)
	}
	return median(fixed)
}
