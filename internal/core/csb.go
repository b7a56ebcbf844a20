package core

// CSB is pure context-switch bounding: the ablation of the paper's central
// design choice. It enumerates executions in increasing order of TOTAL
// context switches, preempting or not, instead of preempting switches
// only.
//
// The paper's §2 argument predicts exactly how this fails: a terminating
// execution needs some minimum number of nonpreempting switches just to
// let blocked threads finish (bound 0 cannot even run a second thread), so
// the frontier grows much faster per bug found, and bugs that ICB exposes
// at preemption bound 1 — like Dryad's Figure 3 use-after-free, whose
// trace has 6+ nonpreempting switches — only appear at switch bounds an
// order of magnitude higher. The ablation experiment
// (icb-bench -exp ablate) measures both effects.
type CSB struct{}

// Name implements Strategy.
func (CSB) Name() string { return "csb" }

// Explore implements Strategy: the one-worker drain of ICB under the
// cost rule that charges every context switch (see icbController). It
// ignores the work-item table and BPOR.
func (CSB) Explore(e *Engine) { newSearch(e, 1, nil, true).run(e) }
