package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"time"

	"icb/internal/core"
	"icb/internal/obs/prof"
	"icb/internal/sched"
)

// childEnv marks a process as the benchmark's child: the parent starts its
// own executable again with this variable set.
const childEnv = "ICB_BENCHMARK_CHILD"

// setupsPerPass is how many set-ups the end-to-end run times before each
// pass; setup_s is their median. Spread over the run instead of timed back
// to back at its start, they sample the host's speed as often as the passes
// do: one set-up takes 0.2-3 ms, and the speed of the host the benchmark was
// sized on has swung by half within a minute.
const setupsPerPass = 5

// input is everything the child receives: the workload name, the generated
// programs and the run's settings. The references stay with the parent.
type input struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Seconds  float64     `json:"seconds"`
	Trace    bool        `json:"trace"`
	Programs []inProgram `json:"programs"`
}

// childOutput is what the child reports: every search's record, grouped by
// the configuration it ran under, the metrics, and in a traced run its
// spans.
type childOutput struct {
	Groups  []recordGroup `json:"groups"`
	Metrics metricSet     `json:"metrics"`
	Spans   []span        `json:"spans,omitempty"`
}

type recordGroup struct {
	Config  searchConfig `json:"config"`
	Records []record     `json:"records"`
}

// childMain runs the child: inputs on stdin, childOutput on stdout.
func childMain(stdin io.Reader, stdout io.Writer) int {
	raw, err := io.ReadAll(stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark child: reading inputs:", err)
		return 2
	}
	c, err := newChild(raw)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark child:", err)
		return 2
	}
	var out childOutput
	if c.in.Trace {
		out = c.traced()
	} else {
		out = childOutput{Metrics: c.endToEndMetrics(c.passes(c.config, c.seconds(1), nil, 0, passOptions{setUps: setupsPerPass}))}
	}
	out.Groups = c.groups
	if err := json.NewEncoder(stdout).Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark child: writing results:", err)
		return 2
	}
	return 0
}

// child holds one child process's materialized workload.
type child struct {
	in     input
	config searchConfig
	progs  []sched.Program
	setups []float64
	// rng shuffles the program order of every pass.
	rng    *rand.Rand
	groups []recordGroup
}

// newChild decodes the child's inputs and sets the workload up once.
func newChild(raw []byte) (*child, error) {
	c := &child{}
	if err := json.Unmarshal(raw, &c.in); err != nil {
		return nil, fmt.Errorf("decoding inputs: %w", err)
	}
	w, ok := findWorkload(c.in.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", c.in.Workload)
	}
	c.config = w.config
	c.rng = rand.New(rand.NewSource(c.in.Seed))
	if err := c.setUp(); err != nil {
		return nil, err
	}
	return c, nil
}

// setUp builds every program from its input and runs each once untimed,
// so that no search pays lazy initialization, and records how long that
// took. Set-up is single-threaded, so it runs on one P (see withProcs).
func (c *child) setUp() error {
	defer withProcs(1)()
	t0 := time.Now()
	progs := make([]sched.Program, len(c.in.Programs))
	for i, p := range c.in.Programs {
		prog, err := materialize(p)
		if err != nil {
			return err
		}
		sched.Run(prog, sched.FirstEnabled{}, sched.Config{})
		progs[i] = prog
	}
	c.setups = append(c.setups, time.Since(t0).Seconds())
	c.progs = progs
	return nil
}

// seconds returns share of the run's measured time.
func (c *child) seconds(share float64) time.Duration {
	return time.Duration(share * c.in.Seconds * float64(time.Second))
}

// pass is one search of every program, in a shuffled order.
type pass struct {
	wall time.Duration
	// ms and recs hold each search's wall time and record, in run order.
	ms   []float64
	recs []record
}

func (p pass) executions() int {
	n := 0
	for _, r := range p.recs {
		n += r.Executions
	}
	return n
}

// passOptions adjust passes: setUps set-ups are timed before each pass,
// prof is attached to every search, and when record is non-nil each search
// gets a recorder keeping every every[i]-th execution of program i.
type passOptions struct {
	setUps int
	prof   *prof.Profiler
	record map[int]*recorder
	every  []int
}

// runPass searches every program once under cfg: a closed loop with one
// search in flight, on as many Ps as the search has workers.
func (c *child) runPass(cfg searchConfig, tr *tracer, parent int, h passOptions) pass {
	defer withProcs(cfg.Workers)()
	order := c.rng.Perm(len(c.progs))
	ps := tr.begin("pass", parent, 0)
	p := pass{ms: make([]float64, 0, len(order)), recs: make([]record, 0, len(order))}
	t0 := time.Now()
	for _, i := range order {
		opt := cfg.options(c.in.Programs[i].Bound)
		opt.Profiler = h.prof
		search := tr.newSearch()
		if h.record != nil {
			r := &recorder{every: h.every[i], search: search}
			h.record[i] = r
			opt.TraceObserver = r
		}
		sp := tr.begin("search", ps, search)
		s0 := time.Now()
		res := core.Explore(c.progs[i], cfg.strategy(), opt)
		p.ms = append(p.ms, float64(time.Since(s0).Nanoseconds())/1e6)
		tr.end(sp)
		p.recs = append(p.recs, newRecord(i, res))
	}
	p.wall = time.Since(t0)
	tr.end(ps)
	c.keep(cfg, p.recs)
	return p
}

// withProcs sets GOMAXPROCS to n and returns the function restoring it.
// Measured code gets exactly the Ps it uses: with a spare P, every
// goroutine hand-off of a sequential search wakes an idle thread, which
// costs futex round trips and ties the search's timings to how promptly
// the host schedules that thread. On the 2-CPU host the benchmark is sized
// for, a spare P made sequential timings several times noisier.
func withProcs(n int) func() {
	prev := runtime.GOMAXPROCS(n)
	return func() { runtime.GOMAXPROCS(prev) }
}

// passes runs passes under cfg until the next one would end after budget;
// at least one runs. Only the first pass records executions.
func (c *child) passes(cfg searchConfig, budget time.Duration, tr *tracer, parent int, h passOptions) []pass {
	var out []pass
	start := time.Now()
	for len(out) == 0 || time.Since(start)+out[len(out)-1].wall <= budget {
		for range h.setUps {
			if err := c.setUp(); err != nil {
				panic(fmt.Sprintf("setting up inputs that set up before: %v", err))
			}
		}
		out = append(out, c.runPass(cfg, tr, parent, h))
		h.record = nil
	}
	return out
}

// keep files records for the parent's verdict check.
func (c *child) keep(cfg searchConfig, recs []record) {
	for i := range c.groups {
		if c.groups[i].Config == cfg {
			c.groups[i].Records = append(c.groups[i].Records, recs...)
			return
		}
	}
	c.groups = append(c.groups, recordGroup{Config: cfg, Records: slices.Clone(recs)})
}

// endToEndMetrics computes every end-to-end metric but peak_rss_mb, which
// only the parent can read. verdict_geo_ms weighs each suite program
// equally, so that Dryad does not hide the others; it leaves out the
// generated programs, whose draw changes with the seed and would move a
// mean over a few dozen of them by more than any bound worth setting.
func (c *child) endToEndMetrics(passes []pass) metricSet {
	m := metricSet{}
	m.distribution("setup_s", c.setups)
	var rates, all, geo, slowest []float64
	for _, p := range passes {
		rates = append(rates, float64(p.executions())/p.wall.Seconds())
		all = append(all, p.ms...)
		var suite []float64
		for i, r := range p.recs {
			if c.in.Programs[r.Prog].Spec == "" {
				suite = append(suite, p.ms[i])
			}
		}
		geo = append(geo, geomean(suite))
		slowest = append(slowest, slices.Max(p.ms))
	}
	m.distribution("execs_per_s", rates)
	m.distribution("verdict_p50_ms", all)
	if pm, ok := tailPermille(len(all)); ok {
		s := m["verdict_p50_ms"]
		s.TailPermille, s.Tail = pm, percentile(all, pm)
		m["verdict_p50_ms"] = s
	}
	m.distribution("verdict_geo_ms", geo)
	m.distribution("verdict_slowest_ms", slowest)
	return m
}
