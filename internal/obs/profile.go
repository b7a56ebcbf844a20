package obs

// This file is the data model of the search profiler (package obs/prof):
// plain-value snapshot structs that cross the package boundary between the
// profiler's atomic counters and every surface that renders them (Snapshot,
// NDJSON, the dashboard, repro bundles, icb -profile-out). Package obs
// deliberately holds only the shapes; the measurement machinery lives in
// obs/prof and this package stays dependency-free.

// Profiler phase names, in the order ProfileData.Phases reports them.
// Replay and Explore partition each execution's wall clock: the time spent
// re-running the seed-schedule prefix versus extending past it. The
// remaining phases are sampled sub-costs measured on one execution in
// SampleEvery (they overlap Replay/Explore, they do not add to them):
// HB fingerprinting (including state-set insertion), dynamic race
// detection, and work-item-table probes.
const (
	PhaseReplay      = "replay"
	PhaseExplore     = "explore"
	PhaseFingerprint = "fingerprint"
	PhaseRace        = "race"
	PhaseCacheProbe  = "cache_probe"
)

// ProfileBucket is one bucket of a phase's log2 latency histogram: LoNS is
// the bucket's inclusive lower edge in nanoseconds (2^k); the bucket spans
// [LoNS, 2*LoNS). Zero-count buckets are omitted.
type ProfileBucket struct {
	LoNS  int64 `json:"lo_ns"`
	Count int64 `json:"count"`
}

// ProfilePhase aggregates one timing phase across the whole search.
type ProfilePhase struct {
	// Phase is one of the Phase* constants.
	Phase string `json:"phase"`
	// Count is the number of observations (executions for replay/explore,
	// sampled executions for the sampled phases).
	Count int64 `json:"count"`
	// NS is the total nanoseconds observed.
	NS int64 `json:"ns"`
	// Sampled marks phases measured on 1-in-SampleEvery executions; scale
	// NS by SampleEvery to estimate the phase's full cost.
	Sampled bool `json:"sampled,omitempty"`
	// Buckets is the log2(ns) histogram of per-execution observations.
	Buckets []ProfileBucket `json:"buckets,omitempty"`
}

// ProfilePhaseNS is one phase's share of a bound's wall clock.
type ProfilePhaseNS struct {
	Phase string `json:"phase"`
	NS    int64  `json:"ns"`
}

// ProfileBound is one preemption bound's redundancy accounting: how many
// executions the bound cost versus how many distinct HB execution classes
// (Mazurkiewicz traces) they reached. RedundantFrac is the fraction of
// executions that revisited an already-seen class — the executions a
// partial-order-reduction layer could have skipped.
type ProfileBound struct {
	Bound int `json:"bound"`
	// Executions run while the bound was being drained.
	Executions int64 `json:"executions"`
	// NewClasses is the number of distinct HB fingerprints first reached
	// at this bound.
	NewClasses int64 `json:"new_classes"`
	// RedundantFrac is 1 - NewClasses/Executions (0 when Executions == 0).
	RedundantFrac float64 `json:"redundant_frac"`
	// Pruned is the number of work items the partial-order-reduction layer
	// (core's BPOR) net-pruned at this bound: blind-expansion pushes it
	// suppressed minus the targeted backtracking items it emitted instead.
	// Zero when the reduction is off.
	Pruned int64 `json:"pruned,omitempty"`
	// RedundantFracFull is the redundancy over the work the bound would have
	// held without the reduction: 1 - NewClasses/(Executions+Pruned). With
	// the reduction off it equals RedundantFrac; with it on, the gap between
	// the two is the redundancy the reduction removed, so the metrics tie
	// out: RedundantFracFull(bpor on) ≈ RedundantFrac(bpor off) on the same
	// program. Omitted (zero) when Pruned is zero.
	RedundantFracFull float64 `json:"redundant_frac_full,omitempty"`
	// DurationNS is the bound's wall-clock time.
	DurationNS int64 `json:"duration_ns"`
	// PhaseNS breaks the bound's execution time into phases (same
	// semantics as ProfilePhase: replay/explore partition, rest sampled).
	PhaseNS []ProfilePhaseNS `json:"phase_ns,omitempty"`
}

// ProfileWorker is one parallel worker's contention counters. Lock waits
// use a try-lock fast path: an uncontended acquire costs no clock read and
// counts nothing; only acquires that found the shard lock held are counted
// and timed, so Waits doubles as the CAS-retry analogue of the striped
// tables.
type ProfileWorker struct {
	Worker int `json:"worker"`
	// StateLockWaits / StateLockWaitNS count contended acquires of
	// hb.ShardedStateSet shards.
	StateLockWaits  int64 `json:"state_lock_waits"`
	StateLockWaitNS int64 `json:"state_lock_wait_ns"`
	// TableLockWaits / TableLockWaitNS count contended acquires of the
	// shared work-item-table shards.
	TableLockWaits  int64 `json:"table_lock_waits"`
	TableLockWaitNS int64 `json:"table_lock_wait_ns"`
	// BarrierWaitNS is time spent idle at bound barriers, waiting for the
	// slowest worker of the round.
	BarrierWaitNS int64 `json:"barrier_wait_ns"`
	// FetchStalls counts work-fetch attempts that found nothing runnable
	// anywhere — the worker's own deques and every steal victim empty.
	FetchStalls int64 `json:"fetch_stalls"`
	// Steals / StealFails count work-stealing sweeps by this worker after
	// its own deque ran dry: successful sweeps took an item from a
	// sibling's deque, failed ones found every victim empty at the swept
	// bound. A high fail share means starvation, not imbalance.
	Steals     int64 `json:"steals"`
	StealFails int64 `json:"steal_fails"`
	// IdleNS is time spent parked with no runnable or stealable work
	// anywhere (distinct from BarrierWaitNS, where the worker is held at a
	// bound retirement).
	IdleNS int64 `json:"idle_ns"`
}

// ProfileFirstBug records the first sighting of one distinct defect: the
// cost, in wall clock and executions, of reaching it — the metric a
// bug-hunting frontier ordering optimizes.
type ProfileFirstBug struct {
	Kind    string `json:"kind"`
	Message string `json:"message"`
	// Execution is the 1-based index of the exposing execution.
	Execution int `json:"execution"`
	// Bound is the preemption bound being drained at the sighting.
	Bound int `json:"bound"`
	// TNS is wall-clock nanoseconds from profiler start to the sighting.
	TNS int64 `json:"t_ns"`
}

// ProfileData is a point-in-time snapshot of the search profiler, safe to
// retain and JSON-encode. Produced by (*prof.Profiler).Profile.
type ProfileData struct {
	// SampleEvery is the sampling period of the sampled phases (1 = every
	// execution).
	SampleEvery int `json:"sample_every"`
	// Truncated reports that some observation fell beyond the tracked
	// bound/worker/bug capacity and was folded or dropped.
	Truncated bool              `json:"truncated,omitempty"`
	Phases    []ProfilePhase    `json:"phases,omitempty"`
	Bounds    []ProfileBound    `json:"bounds,omitempty"`
	Workers   []ProfileWorker   `json:"workers,omitempty"`
	FirstBugs []ProfileFirstBug `json:"first_bugs,omitempty"`
}

// ProfileSource produces profiler snapshots. Implemented by prof.Profiler;
// Metrics holds it as an interface so package obs does not depend on the
// measurement machinery.
type ProfileSource interface {
	// Profile returns the current profiler snapshot. Safe for concurrent
	// use with ongoing updates.
	Profile() ProfileData
}

// ProfileEvent carries the final profiler snapshot of one exploration.
type ProfileEvent struct {
	Profile ProfileData `json:"profile"`
}

// BPORBoundStat is one preemption bound's partial-order-reduction
// accounting within a BPORStatsEvent.
type BPORBoundStat struct {
	Bound int `json:"bound"`
	// Suppressed is the number of work items plain ICB's blind expansion
	// would have pushed at this bound that the reduction did not.
	Suppressed int64 `json:"suppressed"`
	// Emitted is the number of targeted backtracking items the reduction
	// pushed instead.
	Emitted int64 `json:"emitted"`
	// Pruned is the bound's net saving: max(0, Suppressed-Emitted).
	Pruned int64 `json:"pruned"`
}

// BPORStatsEvent reports the final accounting of a search that ran with
// bounded partial-order reduction (core.Options.BPOR): how much of the
// blind expansion the sleep sets and targeted backtracking replaced.
type BPORStatsEvent struct {
	// Executions is the search's total execution count (for computing the
	// saving against a plain run).
	Executions int `json:"executions"`
	// Suppressed, Emitted and Pruned are the totals of the per-bound stats.
	Suppressed int64 `json:"suppressed"`
	Emitted    int64 `json:"emitted"`
	Pruned     int64 `json:"pruned"`
	// SleepBlocked counts free scheduling points whose enabled threads were
	// all asleep. The execution continues redundantly past them (cutting
	// would lose the suffix's backtracking scans); the count measures how
	// often the sleep sets fully covered a branch point.
	SleepBlocked int64 `json:"sleep_blocked"`
	// SeenSize is the size of the (prefix, decision) registration table.
	SeenSize int `json:"seen_size"`
	// Truncated reports per-bound stats folded at the tracked-bound capacity.
	Truncated bool `json:"truncated,omitempty"`
	// Bounds holds the per-bound breakdown, ascending by bound.
	Bounds []BPORBoundStat `json:"bounds,omitempty"`
}

// CampaignEvent reports the progress of a long-running multi-program
// campaign (the differential fuzzer): how many generated programs were
// checked, how much search they cost, and whether the oracle had to skip
// any. Emitted periodically and once more, with Done set, at the end.
type CampaignEvent struct {
	// Programs is the number of generated programs checked so far.
	Programs int `json:"programs"`
	// Skipped counts programs the brute-force oracle skipped (schedule
	// space exceeded its execution failsafe).
	Skipped int `json:"skipped"`
	// Buggy counts programs in which ICB found at least one bug.
	Buggy int `json:"buggy"`
	// Executions is the cumulative count of oracle-enumerated executions
	// (the ground-truth cost; strategy executions are reported by the
	// profiler stream when one is attached).
	Executions int64 `json:"executions"`
	// ExecsPerSec is the campaign-lifetime mean execution rate.
	ExecsPerSec float64 `json:"execs_per_sec"`
	// Discrepancies counts strategy-vs-oracle disagreements (the campaign
	// fails if any remain at the end).
	Discrepancies int `json:"discrepancies"`
	// Done marks the final event of the campaign.
	Done bool `json:"done,omitempty"`
}
