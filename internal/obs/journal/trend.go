package journal

import (
	"fmt"
	"sort"

	"icb/internal/core"
	"icb/internal/obs"
)

// BuildRunRecord converts an exploration result into the ledger shape.
// The caller (command layer) fills in atlas deltas and the interrupted
// flag; Writer.FinishRun fills in identity, config and wall times.
func BuildRunRecord(res core.Result) *obs.RunRecord {
	rec := &obs.RunRecord{
		DurationNS:     res.Duration.Nanoseconds(),
		Executions:     res.Executions,
		States:         res.States,
		Classes:        res.ExecutionClasses,
		BoundCompleted: res.BoundCompleted,
		Exhausted:      res.Exhausted,
		CacheHits:      res.CacheHits,
		CacheMisses:    res.CacheMisses,
	}
	for _, bs := range res.BoundStats {
		rec.BoundStats = append(rec.BoundStats, obs.RunBoundStat{
			Bound:      bs.Bound,
			Executions: bs.Executions,
			DurationNS: bs.Duration.Nanoseconds(),
		})
	}
	for i := range res.Bugs {
		b := &res.Bugs[i]
		rec.Bugs = append(rec.Bugs, obs.RunBug{
			Kind:        b.Kind.String(),
			Message:     b.Message,
			Execution:   b.Execution,
			Preemptions: b.Preemptions,
			Count:       b.Count,
		})
	}
	return rec
}

// Regression is one metric that got worse between two comparable runs.
type Regression struct {
	// Metric names what regressed ("bug_set", "first_bug_execution", ...).
	Metric string `json:"metric"`
	// Old and New are the metric values ("what it was" / "what it is");
	// zero for set-valued metrics, which use Detail instead.
	Old float64 `json:"old,omitempty"`
	New float64 `json:"new,omitempty"`
	// Detail is the human-readable account.
	Detail string `json:"detail"`
}

// Diff compares a new run against an old one and returns the regressions
// in its deterministic budget metrics (bug set, time-to-first-bug in
// executions, bound progress, coverage counts), gated by tol (fractional
// slack, e.g. 0.05). Wall-clock fields are never gated here: the
// repository benchmark (benchmark/) is where wall clock is judged. Both
// runs must carry the same ConfigHash: comparing different configurations
// is an error, not a regression.
func Diff(old, cur *obs.RunRecord, tol float64) ([]Regression, error) {
	if old.ConfigHash != cur.ConfigHash {
		return nil, fmt.Errorf("journal: runs are not comparable: config %s (run %s) vs %s (run %s)",
			old.ConfigHash, old.RunID, cur.ConfigHash, cur.RunID)
	}
	var regs []Regression

	// Bug set: every defect the old run found must still be found. New
	// defects in the new run are discoveries, not regressions.
	seen := make(map[string]bool, len(cur.Bugs))
	for _, b := range cur.Bugs {
		seen[b.Kind+"\x00"+b.Message] = true
	}
	for _, b := range old.Bugs {
		if !seen[b.Kind+"\x00"+b.Message] {
			regs = append(regs, Regression{
				Metric: "bug_set",
				Detail: fmt.Sprintf("bug no longer found: %s: %s", b.Kind, b.Message),
			})
		}
	}

	// Time-to-first-bug in executions: the paper's budget metric. More
	// executions to the first defect means the search got slower at its
	// primary job.
	if old.FirstBugExecution > 0 && cur.FirstBugExecution > 0 {
		if worse(float64(old.FirstBugExecution), float64(cur.FirstBugExecution), tol) {
			regs = append(regs, Regression{
				Metric: "first_bug_execution",
				Old:    float64(old.FirstBugExecution),
				New:    float64(cur.FirstBugExecution),
				Detail: fmt.Sprintf("first bug at execution %d, was %d", cur.FirstBugExecution, old.FirstBugExecution),
			})
		}
	}

	// Bound progress: completing fewer bounds under the same config is a
	// coverage-guarantee regression.
	if cur.BoundCompleted < old.BoundCompleted {
		regs = append(regs, Regression{
			Metric: "bound_completed",
			Old:    float64(old.BoundCompleted),
			New:    float64(cur.BoundCompleted),
			Detail: fmt.Sprintf("completed bound %d, was %d", cur.BoundCompleted, old.BoundCompleted),
		})
	}
	if old.Exhausted && !cur.Exhausted {
		regs = append(regs, Regression{
			Metric: "exhausted",
			Detail: "search no longer exhausts the schedule space",
		})
	}

	// Coverage counts: shrinking distinct-state/class counts under the
	// same completed bounds means lost coverage.
	if shrunk(float64(old.States), float64(cur.States), tol) {
		regs = append(regs, Regression{
			Metric: "states",
			Old:    float64(old.States),
			New:    float64(cur.States),
			Detail: fmt.Sprintf("%d distinct states, was %d", cur.States, old.States),
		})
	}
	if shrunk(float64(old.Classes), float64(cur.Classes), tol) {
		regs = append(regs, Regression{
			Metric: "classes",
			Old:    float64(old.Classes),
			New:    float64(cur.Classes),
			Detail: fmt.Sprintf("%d execution classes, was %d", cur.Classes, old.Classes),
		})
	}
	if old.AtlasSites > 0 && shrunk(float64(old.AtlasSites), float64(cur.AtlasSites), tol) {
		regs = append(regs, Regression{
			Metric: "atlas_sites",
			Old:    float64(old.AtlasSites),
			New:    float64(cur.AtlasSites),
			Detail: fmt.Sprintf("%d atlas sites, was %d", cur.AtlasSites, old.AtlasSites),
		})
	}

	// Per-bound execution counts: only comparable exactly when caching is
	// off and both runs completed the bound; gate by tolerance to stay
	// stable across cache-order nondeterminism in parallel runs.
	oldBounds := make(map[int]int, len(old.BoundStats))
	for _, bs := range old.BoundStats {
		oldBounds[bs.Bound] = bs.Executions
	}
	for _, bs := range cur.BoundStats {
		if bs.Bound > old.BoundCompleted || bs.Bound > cur.BoundCompleted {
			continue
		}
		if ob, ok := oldBounds[bs.Bound]; ok && worse(float64(ob), float64(bs.Executions), tol) {
			regs = append(regs, Regression{
				Metric: fmt.Sprintf("bound_%d_executions", bs.Bound),
				Old:    float64(ob),
				New:    float64(bs.Executions),
				Detail: fmt.Sprintf("bound %d took %d executions, was %d", bs.Bound, bs.Executions, ob),
			})
		}
	}
	return regs, nil
}

// worse reports that cur exceeds old by more than the fractional
// tolerance (for metrics where bigger is worse).
func worse(old, cur, tol float64) bool {
	return cur > old*(1+tol)
}

// shrunk reports that cur fell below old by more than the fractional
// tolerance (for metrics where smaller is worse).
func shrunk(old, cur, tol float64) bool {
	return cur < old*(1-tol)
}

// TrendPoint is one run's contribution to a campaign trend: the run's
// budget and coverage metrics plus deltas against the previous comparable
// run.
type TrendPoint struct {
	RunID       string  `json:"run_id"`
	StartUnixNS int64   `json:"start_unix_ns"`
	ConfigHash  string  `json:"config_hash"`
	Executions  int     `json:"executions"`
	DurationNS  int64   `json:"duration_ns"`
	ExecsPerSec float64 `json:"execs_per_sec"`
	States      int     `json:"states"`
	Classes     int     `json:"classes"`
	Bugs        int     `json:"bugs"`
	// FirstBugExecution and FirstBugNS are the run's time-to-first-bug
	// metrics (0 = no bug found).
	FirstBugExecution int   `json:"first_bug_execution,omitempty"`
	FirstBugNS        int64 `json:"first_bug_ns,omitempty"`
	AtlasSites        int   `json:"atlas_sites,omitempty"`
	// DeltaStates, DeltaAtlasSites and DeltaFirstBugExecution are changes
	// against the previous run with the same config hash (0 for the
	// first).
	DeltaStates            int `json:"delta_states,omitempty"`
	DeltaAtlasSites        int `json:"delta_atlas_sites,omitempty"`
	DeltaFirstBugExecution int `json:"delta_first_bug_execution,omitempty"`
}

// Trend computes the campaign trend over a ledger: one point per run in
// start-time order, with deltas chained between runs sharing a config
// hash. Mixed-config ledgers are allowed (a campaign directory may hold
// several experiment variants); deltas never cross configs.
func Trend(runs []obs.RunRecord) []TrendPoint {
	ordered := make([]obs.RunRecord, len(runs))
	copy(ordered, runs)
	sort.SliceStable(ordered, func(i, j int) bool {
		return ordered[i].StartUnixNS < ordered[j].StartUnixNS
	})
	prev := make(map[string]*TrendPoint)
	out := make([]TrendPoint, 0, len(ordered))
	for _, r := range ordered {
		tp := TrendPoint{
			RunID:             r.RunID,
			StartUnixNS:       r.StartUnixNS,
			ConfigHash:        r.ConfigHash,
			Executions:        r.Executions,
			DurationNS:        r.DurationNS,
			States:            r.States,
			Classes:           r.Classes,
			Bugs:              len(r.Bugs),
			FirstBugExecution: r.FirstBugExecution,
			FirstBugNS:        r.FirstBugNS,
			AtlasSites:        r.AtlasSites,
		}
		if r.DurationNS > 0 {
			tp.ExecsPerSec = float64(r.Executions) / (float64(r.DurationNS) / 1e9)
		}
		if p := prev[r.ConfigHash]; p != nil {
			tp.DeltaStates = tp.States - p.States
			tp.DeltaAtlasSites = tp.AtlasSites - p.AtlasSites
			if tp.FirstBugExecution > 0 && p.FirstBugExecution > 0 {
				tp.DeltaFirstBugExecution = tp.FirstBugExecution - p.FirstBugExecution
			}
		}
		out = append(out, tp)
		last := out[len(out)-1]
		prev[r.ConfigHash] = &last
	}
	return out
}
