package sched

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// PickInfo describes a thread-scheduling choice point: the set of enabled
// threads, their pending operations, and whether continuing the previously
// running thread is possible (which determines whether switching away from
// it counts as a preemption, per Appendix A's NP definition).
type PickInfo struct {
	// Step is the global index of the step about to be executed.
	Step int
	// Prev is the thread that executed the previous step (L(a)), or NoTID at
	// the first scheduling point of the execution.
	Prev TID
	// PrevEnabled reports whether Prev is currently enabled. Choosing any
	// thread other than an enabled Prev is a preempting context switch.
	PrevEnabled bool
	// Enabled lists the enabled threads in ascending TID order. It is never
	// empty (deadlocks are detected before the controller is consulted) and
	// must not be mutated or retained.
	Enabled []TID
	// Ops gives the pending operation of each enabled thread, parallel to
	// Enabled.
	Ops []Op
}

// EnabledIndex returns the position of t in Enabled, or -1.
func (pi PickInfo) EnabledIndex(t TID) int {
	for i, u := range pi.Enabled {
		if u == t {
			return i
		}
	}
	return -1
}

// IsEnabled reports whether t is enabled at this point.
func (pi PickInfo) IsEnabled(t TID) bool { return pi.EnabledIndex(t) >= 0 }

// Controller makes the nondeterministic choices of one execution: which
// enabled thread runs next at each scheduling point, and the value of each
// data-choice point. A Controller is used by exactly one Runtime at a time
// and all its methods are invoked from the goroutine that called Run.
type Controller interface {
	// PickThread selects the next thread to run from info.Enabled. Returning
	// ok=false stops the execution immediately (outcome StatusStopped).
	PickThread(info PickInfo) (tid TID, ok bool)
	// PickData resolves a Choose(n) point of thread t; the result must be in
	// [0, n).
	PickData(t TID, n int) int
}

// DecisionKind distinguishes the two decision types of an execution log.
type DecisionKind uint8

const (
	// DecisionThread is a scheduling decision.
	DecisionThread DecisionKind = iota
	// DecisionData is a data-choice decision.
	DecisionData
)

// Decision is one recorded nondeterministic choice. The sequence of
// decisions of an execution fully determines it, so a decision log is a
// replayable schedule.
type Decision struct {
	// Kind selects which field is meaningful.
	Kind DecisionKind
	// Thread is the chosen thread for DecisionThread.
	Thread TID
	// Data is the chosen value for DecisionData.
	Data int
}

// ThreadDecision constructs a scheduling decision.
func ThreadDecision(t TID) Decision { return Decision{Kind: DecisionThread, Thread: t} }

// DataDecision constructs a data-choice decision.
func DataDecision(v int) Decision { return Decision{Kind: DecisionData, Data: v} }

// String renders the decision compactly ("t3" or "d2").
func (d Decision) String() string {
	var buf [12]byte
	return string(d.Append(buf[:0]))
}

// Append appends the decision's compact form (its String) to b and returns
// the extended buffer. It is the one decision formatter: Schedule.String
// and the partial-order reduction's registration keys build their text
// with it, allocating only when b must grow.
func (d Decision) Append(b []byte) []byte {
	if d.Kind == DecisionThread {
		return strconv.AppendInt(append(b, 't'), int64(d.Thread), 10)
	}
	return strconv.AppendInt(append(b, 'd'), int64(d.Data), 10)
}

// MarshalJSON renders the decision as its compact string form ("t3",
// "d2"), so a marshaled Schedule is a JSON array of short strings — the
// on-disk decision format of repro bundles (package obs/repro).
func (d Decision) MarshalJSON() ([]byte, error) {
	return json.Marshal(d.String())
}

// UnmarshalJSON parses the compact string form back into a decision.
func (d *Decision) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	parsed, err := parseDecision(s)
	if err != nil {
		return err
	}
	*d = parsed
	return nil
}

// Schedule is a replayable sequence of decisions.
type Schedule []Decision

// Clone returns an independent copy of the schedule.
func (s Schedule) Clone() Schedule {
	out := make(Schedule, len(s))
	copy(out, s)
	return out
}

// Extend returns a copy of s with d appended; s is never mutated, so
// schedules may be shared between work items.
func (s Schedule) Extend(d Decision) Schedule {
	out := make(Schedule, len(s)+1)
	copy(out, s)
	out[len(s)] = d
	return out
}

// String renders the schedule as "t0 t0 d1 t2 ...".
func (s Schedule) String() string {
	b := make([]byte, 0, 4*len(s))
	for i, d := range s {
		if i > 0 {
			b = append(b, ' ')
		}
		b = d.Append(b)
	}
	return string(b)
}

// ReplayError reports a divergence while replaying a schedule: the program
// under test behaved differently from the recording, which means it has
// nondeterminism outside the scheduler's control (a modeling bug).
type ReplayError struct {
	// Pos is the index of the diverging decision.
	Pos int
	// Want is the recorded decision.
	Want Decision
	// Got describes what the execution offered instead.
	Got string
}

// Error implements error.
func (e *ReplayError) Error() string {
	return fmt.Sprintf("replay divergence at decision %d: recorded %s, execution offered %s", e.Pos, e.Want, e.Got)
}

// ReplayController replays a schedule prefix and then delegates the rest of
// the execution to Tail. It is the bridge between the stateless exploration
// engine (which stores schedules, not states, in its work items) and the
// runtime. Divergence from the recorded schedule panics with *ReplayError;
// Runtime.Run converts that panic into a StatusReplayDiverged outcome.
type ReplayController struct {
	// Prefix is replayed verbatim.
	Prefix Schedule
	// Tail handles decisions beyond the prefix. It must be non-nil.
	Tail Controller

	pos int
}

// PickThread implements Controller.
func (rc *ReplayController) PickThread(info PickInfo) (TID, bool) {
	if rc.pos < len(rc.Prefix) {
		d := rc.Prefix[rc.pos]
		rc.pos++
		if d.Kind != DecisionThread {
			panic(&ReplayError{Pos: rc.pos - 1, Want: d, Got: "a thread scheduling point"})
		}
		if !info.IsEnabled(d.Thread) {
			panic(&ReplayError{Pos: rc.pos - 1, Want: d, Got: fmt.Sprintf("enabled set %v", info.Enabled)})
		}
		return d.Thread, true
	}
	return rc.Tail.PickThread(info)
}

// PickData implements Controller.
func (rc *ReplayController) PickData(t TID, n int) int {
	if rc.pos < len(rc.Prefix) {
		d := rc.Prefix[rc.pos]
		rc.pos++
		if d.Kind != DecisionData {
			panic(&ReplayError{Pos: rc.pos - 1, Want: d, Got: fmt.Sprintf("a data choice of thread t%d", t)})
		}
		if d.Data < 0 || d.Data >= n {
			panic(&ReplayError{Pos: rc.pos - 1, Want: d, Got: fmt.Sprintf("a data choice over %d values", n)})
		}
		return d.Data
	}
	return rc.Tail.PickData(t, n)
}

// Replaying reports whether the controller is still inside its prefix.
func (rc *ReplayController) Replaying() bool { return rc.pos < len(rc.Prefix) }

// FirstEnabled is the trivial controller: it always runs the previously
// running thread if it is still enabled and otherwise the lowest-numbered
// enabled thread, and resolves every data choice to 0. Running a program
// under FirstEnabled yields the canonical zero-preemption execution that the
// paper's §2 argument relies on (any state can be driven to completion
// without further preemptions).
type FirstEnabled struct{}

// PickThread implements Controller.
func (FirstEnabled) PickThread(info PickInfo) (TID, bool) {
	if info.PrevEnabled {
		return info.Prev, true
	}
	return info.Enabled[0], true
}

// PickData implements Controller.
func (FirstEnabled) PickData(TID, int) int { return 0 }

// parseDecision parses one compact decision token ("t3" or "d2").
func parseDecision(f string) (Decision, error) {
	if len(f) < 2 || (f[0] != 't' && f[0] != 'd') {
		return Decision{}, fmt.Errorf("%q is not t<N> or d<N>", f)
	}
	n, err := strconv.Atoi(f[1:])
	if err != nil || n < 0 {
		return Decision{}, fmt.Errorf("bad number in %q", f)
	}
	if f[0] == 't' {
		return ThreadDecision(TID(n)), nil
	}
	return DataDecision(n), nil
}

// ParseSchedule parses the String form of a schedule ("t0 t2 d1 t0 ...")
// back into decisions, for replaying repros passed on a command line or
// stored in a file.
func ParseSchedule(s string) (Schedule, error) {
	var out Schedule
	for i, f := range strings.Fields(s) {
		d, err := parseDecision(f)
		if err != nil {
			return nil, fmt.Errorf("schedule token %d: %v", i, err)
		}
		out = append(out, d)
	}
	return out, nil
}
