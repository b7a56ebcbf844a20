package main

import "fmt"

// metricDef declares one metric the benchmark emits. BENCHMARK.json at the
// repository root declares the same names, units and directions and adds
// each end-to-end metric's regression bound (see TestDeclaredMetrics).
type metricDef struct {
	name, unit, better string
}

// endToEnd lists the metrics a user of the checker sees, emitted by every
// untraced run of every workload. A "verdict" is what one search delivers:
// the first bug of a buggy program, or the completed preemption bound of a
// correct one.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"execs_per_s", "1/s", "higher"},
	{"verdict_p50_ms", "ms", "lower"},
	{"verdict_geo_ms", "ms", "lower"},
	{"verdict_slowest_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer lists the metrics the traced run emits, named after the module
// that owns the layer. README.md says which end-to-end metric each should
// move, on which workload.
var perLayer = []metricDef{
	{"sched.ns_per_step", "ns", "lower"},
	{"sched.allocs_per_step", "count", "lower"},
	{"sched.bytes_per_step", "B", "lower"},
	{"sched.steps_per_exec", "count", "lower"},
	{"sched.preemptions_per_exec", "count", "lower"},
	{"hb.fp_ns_per_event", "ns", "lower"},
	{"hb.stateset_ns_per_add", "ns", "lower"},
	{"hb.stateset_new_frac", "ratio", "higher"},
	{"hb.sharded_ns_per_add", "ns", "lower"},
	{"race.vc_ns_per_event", "ns", "lower"},
	{"core.cache_ns_per_probe", "ns", "lower"},
	{"core.cache_hit_frac", "ratio", "higher"},
	{"core.self_ns_per_exec", "ns", "lower"},
	{"core.search_fixed_us", "us", "lower"},
	{"core.redundant_frac", "ratio", "lower"},
	{"bpor.pruned", "count", "higher"},
	{"bpor.exec_saved_frac", "ratio", "higher"},
	{"bpor.self_ns_per_exec", "ns", "lower"},
	{"bpor.wall_ratio", "ratio", "lower"},
	{"parallel.speedup_2w", "ratio", "higher"},
	{"parallel.exec_overshoot_frac", "ratio", "lower"},
	{"parallel.steals", "count", "higher"},
	{"parallel.steal_fail_frac", "ratio", "lower"},
	{"parallel.idle_frac", "ratio", "lower"},
	{"parallel.lock_wait_frac", "ratio", "lower"},
	{"runtime.gc_cpu_frac", "ratio", "lower"},
	{"runtime.allocs_per_exec", "count", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
}

// stat is one measured metric. N, Q1 and Q3 describe the samples Value was
// taken from, when it is their median; Tail is the highest percentile with
// ten samples beyond it (TailPermille tenths of a percent), when one exists.
type stat struct {
	Value        float64 `json:"value"`
	Unit         string  `json:"unit"`
	N            int     `json:"n,omitempty"`
	Q1           float64 `json:"q1,omitempty"`
	Q3           float64 `json:"q3,omitempty"`
	TailPermille int     `json:"tail_permille,omitempty"`
	Tail         float64 `json:"tail,omitempty"`
}

// metricSet collects one run's metrics, each under its declared unit.
type metricSet map[string]stat

// unitOf returns the declared unit of a metric name.
func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	panic(fmt.Sprintf("benchmark: undeclared metric %q", name))
}

// value records a metric that is a single number.
func (m metricSet) value(name string, v float64) {
	m[name] = stat{Value: v, Unit: unitOf(name)}
}

// distribution records a metric as the median of samples, with its sample
// count and quartiles.
func (m metricSet) distribution(name string, samples []float64) {
	q1, q2, q3 := quartiles(samples)
	m[name] = stat{Value: q2, Unit: unitOf(name), N: len(samples), Q1: q1, Q3: q3}
}
