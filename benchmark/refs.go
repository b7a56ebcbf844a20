package main

import (
	"fmt"

	"icb/internal/core"
	"icb/internal/fuzz"
)

// references are the verdicts every search is checked against. None comes
// from the checker under test: the bug variants are judged by the paper's
// Table 2, the correct programs by checked-in Theorem-1 counts, and the
// generated programs by the brute-force oracle.
type references struct {
	// table2 maps each seeded bug variant to the kind of its bug and the
	// number of preemptions exposing it (Table 2's c column).
	table2 map[string]bugRef
	// drains maps each correct program to its uncached sequential drain:
	// the bound, and the executions, states and classes exhausting it takes.
	// A search to another bound (drain-bpor's Dryad, coverage-par) is
	// checked for completing it without a bug.
	drains map[string]drainPin
	// oracle maps each generated program to its ground truth.
	oracle map[string]*fuzz.Truth
}

type bugRef struct {
	kind        string
	preemptions int
}

type drainPin struct {
	bound, executions, states, classes int
}

// defaultRefs returns the checked-in references; the oracle part is filled
// in per run, from the generated population.
func defaultRefs() references {
	return references{
		table2: map[string]bugRef{
			"bluetooth/stop-window":        {"assertion failure", 1},
			"fsmodel/lockless-alloc":       {"data race", 0},
			"wsq/pop-unreserved-read":      {"assertion failure", 1},
			"wsq/steal-unlocked":           {"assertion failure", 2},
			"wsq/steal-late-commit":        {"assertion failure", 2},
			"ape/shutdown-miscount":        {"assertion failure", 0},
			"ape/lost-wakeup":              {"deadlock", 0},
			"ape/completion-window":        {"assertion failure", 1},
			"ape/activity-pointer":         {"assertion failure", 2},
			"dryad/close-no-wait":          {"assertion failure", 0},
			"dryad/alert-window":           {"assertion failure", 1},
			"dryad/stats-lost-update":      {"assertion failure", 1},
			"dryad/handoff-lost-decrement": {"deadlock", 1},
			"dryad/lock-inversion":         {"deadlock", 1},
		},
		drains: map[string]drainPin{
			"bluetooth": {bound: 2, executions: 1711, states: 8579, classes: 362},
			"fsmodel":   {bound: 2, executions: 3735, states: 1016, classes: 4},
			"wsq":       {bound: 2, executions: 336, states: 7792, classes: 199},
			"ape":       {bound: 2, executions: 631, states: 3116, classes: 64},
			"dryad":     {bound: 1, executions: 18142, states: 15751, classes: 230},
		},
	}
}

// record is what the parent learns of one search: enough to judge its
// verdict, plus the counts the traced run's metrics need.
type record struct {
	Prog           int          `json:"p"`
	Executions     int          `json:"x"`
	States         int          `json:"s"`
	Classes        int          `json:"c"`
	BoundCompleted int          `json:"bc"`
	Bugs           int          `json:"b,omitempty"`
	Kind           core.BugKind `json:"k,omitempty"`
	Message        string       `json:"m,omitempty"`
	Preemptions    int          `json:"pre,omitempty"`
	CacheHits      int          `json:"hits,omitempty"`
	CacheMisses    int          `json:"misses,omitempty"`
	Pruned         int64        `json:"pruned,omitempty"`
}

func newRecord(prog int, res core.Result) record {
	r := record{
		Prog:           prog,
		Executions:     res.Executions,
		States:         res.States,
		Classes:        res.ExecutionClasses,
		BoundCompleted: res.BoundCompleted,
		Bugs:           len(res.Bugs),
		CacheHits:      res.CacheHits,
		CacheMisses:    res.CacheMisses,
		Pruned:         res.BPORPruned,
	}
	if b := res.FirstBug(); b != nil {
		r.Kind, r.Message, r.Preemptions = b.Kind, b.Message, b.Preemptions
	}
	return r
}

// check returns why the search of p under cfg that produced rec got a
// wrong verdict, or "" when it is right.
//
// A search stopping at the first bug must report a bug of the documented
// kind at the documented preemption count, or, for a generated program, a
// bug of the oracle's set at the oracle's minimal preemption count (ICB
// reports a bug needing the fewest preemptions first). A search to a bound
// must complete it without finding a bug; uncached sequential drains must
// also match their pinned counts exactly, and with the partial-order
// reduction on they must reach the same classes in no more executions.
func (r references) check(p inProgram, cfg searchConfig, rec record) string {
	if cfg.StopOnFirstBug {
		if rec.Bugs == 0 {
			return fmt.Sprintf("%s: no bug found", p.Name)
		}
		if truth, ok := r.oracle[p.Name]; ok {
			id := fuzz.BugID{Kind: rec.Kind, Msg: rec.Message}
			if truth.Bugs[id] == nil {
				return fmt.Sprintf("%s: found %s %q, not in the oracle's bug set", p.Name, rec.Kind, rec.Message)
			}
			if rec.Preemptions != truth.MinPreemptions {
				return fmt.Sprintf("%s: first bug at %d preemptions, oracle minimum %d", p.Name, rec.Preemptions, truth.MinPreemptions)
			}
			return ""
		}
		ref, ok := r.table2[p.Name]
		if !ok {
			return fmt.Sprintf("%s: no reference", p.Name)
		}
		if rec.Kind.String() != ref.kind || rec.Preemptions != ref.preemptions {
			return fmt.Sprintf("%s: first bug %s at %d preemptions, Table 2 says %s at %d",
				p.Name, rec.Kind, rec.Preemptions, ref.kind, ref.preemptions)
		}
		return ""
	}
	if rec.BoundCompleted != p.Bound || rec.Bugs != 0 {
		return fmt.Sprintf("%s: completed bound %d with %d bugs, want bound %d and none",
			p.Name, rec.BoundCompleted, rec.Bugs, p.Bound)
	}
	pin, ok := r.drains[p.Name]
	if !ok || pin.bound != p.Bound || cfg.Workers > 1 || cfg.StateCache {
		return ""
	}
	if cfg.BPOR {
		if rec.Classes != pin.classes || rec.Executions > pin.executions {
			return fmt.Sprintf("%s: reduced drain reached %d classes in %d executions, want %d classes in at most %d",
				p.Name, rec.Classes, rec.Executions, pin.classes, pin.executions)
		}
		return ""
	}
	if rec.Executions != pin.executions || rec.States != pin.states || rec.Classes != pin.classes {
		return fmt.Sprintf("%s: drain took %d executions, %d states, %d classes; pinned %d, %d, %d",
			p.Name, rec.Executions, rec.States, rec.Classes, pin.executions, pin.states, pin.classes)
	}
	return ""
}
