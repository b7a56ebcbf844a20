package obs

// This file holds the campaign-durability data models: the run ledger
// record and the checkpoint/resume events. Like ProfileData they live in
// package obs rather than obs/journal so every surface that renders them
// (NDJSON streams, the dashboard, cmd/icb-campaign) shares one shape
// without importing the journal's file-format machinery.

// RunBug is one distinct defect in a run record, with the budget metrics
// the cross-run trend analysis compares: how many executions and how much
// wall time the run needed to first expose it.
type RunBug struct {
	// Kind is the bug classification ("deadlock", "data race", ...).
	Kind string `json:"kind"`
	// Message is the defect description (the dedup identity is
	// kind+message, matching the engine's).
	Message string `json:"message"`
	// Execution is the 1-based index of the first exposing execution.
	Execution int `json:"execution"`
	// Preemptions is the preemption count of the first exposing execution.
	Preemptions int `json:"preemptions"`
	// WallNS is the wall-clock time from run start to the first sighting
	// (0 when unknown, e.g. a bug restored from a resume snapshot).
	WallNS int64 `json:"wall_ns,omitempty"`
	// Count is the number of executions that exposed the defect.
	Count int `json:"count,omitempty"`
}

// RunBoundStat is one bound's cost in a run record.
type RunBoundStat struct {
	Bound      int   `json:"bound"`
	Executions int   `json:"executions"`
	DurationNS int64 `json:"duration_ns"`
}

// RunRecord is one campaign-ledger entry (one line of runs.ndjson): the
// durable summary of a single search run, carrying everything the
// cross-run diff/trend analysis needs without reopening the run's event
// log.
type RunRecord struct {
	// RunID identifies the run within its journal directory.
	RunID string `json:"run_id"`
	// ParentRunID is the run this one resumed from ("" for fresh runs);
	// chains of resumed runs form one logical campaign.
	ParentRunID string `json:"parent_run_id,omitempty"`
	// ConfigHash fingerprints the search configuration (program, bug
	// variant, strategy, bound, workers, caching, ...). Runs are only
	// comparable when their hashes match; icb-campaign diff enforces this.
	ConfigHash string `json:"config_hash"`
	// Program and Strategy identify what ran.
	Program  string `json:"program"`
	Strategy string `json:"strategy"`
	// Seed is the campaign seed for randomized drivers (0 when unused).
	Seed int64 `json:"seed,omitempty"`
	// Workers is the parallel worker count (1 for sequential).
	Workers int `json:"workers"`
	// MaxBound is the configured preemption budget (-1 for unbounded).
	MaxBound int `json:"max_bound"`
	// StartUnixNS is the run's start time; DurationNS its wall time (for
	// resumed runs: this process life only).
	StartUnixNS int64 `json:"start_unix_ns"`
	DurationNS  int64 `json:"duration_ns"`
	// Interrupted reports the run was stopped by a signal; Resumed that it
	// continued an earlier run's snapshot.
	Interrupted bool `json:"interrupted,omitempty"`
	Resumed     bool `json:"resumed,omitempty"`
	// Cumulative search counters (across all process lives of a campaign).
	Executions     int  `json:"executions"`
	States         int  `json:"states"`
	Classes        int  `json:"classes"`
	BoundCompleted int  `json:"bound_completed"`
	Exhausted      bool `json:"exhausted,omitempty"`
	CacheHits      int  `json:"cache_hits,omitempty"`
	CacheMisses    int  `json:"cache_misses,omitempty"`
	// BoundStats is the per-bound cost breakdown.
	BoundStats []RunBoundStat `json:"bound_stats,omitempty"`
	// Bugs lists the distinct defects with their first-sighting budgets.
	Bugs []RunBug `json:"bugs,omitempty"`
	// FirstBugExecution and FirstBugNS are the time-to-first-bug metrics
	// (0 when the run found no bug): execution index and wall time of the
	// earliest sighting.
	FirstBugExecution int   `json:"first_bug_execution,omitempty"`
	FirstBugNS        int64 `json:"first_bug_ns,omitempty"`
	// AtlasSites is the coverage-atlas site count at run end;
	// AtlasNewSites how many of them this run added to the journal's atlas.
	AtlasSites    int `json:"atlas_sites,omitempty"`
	AtlasNewSites int `json:"atlas_new_sites,omitempty"`
	// Checkpoints counts the snapshots the run persisted.
	Checkpoints int `json:"checkpoints,omitempty"`
}

// CheckpointEvent reports one persisted search-state snapshot.
type CheckpointEvent struct {
	// Seq is the 1-based checkpoint ordinal within the run.
	Seq int `json:"seq"`
	// Bound is the preemption bound the snapshot was taken in.
	Bound int `json:"bound"`
	// Executions, States, Classes, Bugs are the snapshot's cumulative
	// counters.
	Executions int `json:"executions"`
	States     int `json:"states"`
	Classes    int `json:"classes,omitempty"`
	Bugs       int `json:"bugs,omitempty"`
	// SeedQueue and NextWork are the snapshot's frontier sizes: remaining
	// current-bound seeds and deferred next-bound items.
	SeedQueue int `json:"seed_queue"`
	NextWork  int `json:"next_work,omitempty"`
	// Scheduler tags the snapshot format (v6; "ws/2" since every worker
	// count writes the same snapshot and resumes any other's).
	Scheduler string `json:"scheduler,omitempty"`
	// NextWork2 and HeldBugs are the rest of a multi-worker search's
	// frontier (v6): items already deferred two bounds ahead by early
	// next-bound executions, and fresh bug sightings held back until their
	// bound retires. Both 0 at one worker.
	NextWork2 int `json:"next_work2,omitempty"`
	HeldBugs  int `json:"held_bugs,omitempty"`
	// Final marks the run's last snapshot (stop, budget, completion).
	Final bool `json:"final,omitempty"`
}

// ResumeEvent reports that a search restarted from a snapshot.
type ResumeEvent struct {
	// Dir is the journal directory resumed from.
	Dir string `json:"dir"`
	// ParentRunID is the interrupted run whose snapshot seeds this one.
	ParentRunID string `json:"parent_run_id,omitempty"`
	// Bound, Executions, Bugs are the restored counters.
	Bound      int `json:"bound"`
	Executions int `json:"executions"`
	Bugs       int `json:"bugs,omitempty"`
	// SeedQueue, NextWork, NextWork2 and HeldBugs are the restored
	// frontier sizes, as in CheckpointEvent.
	SeedQueue int `json:"seed_queue"`
	NextWork  int `json:"next_work,omitempty"`
	NextWork2 int `json:"next_work2,omitempty"`
	HeldBugs  int `json:"held_bugs,omitempty"`
}

// RunEvent carries a finished run's ledger record.
type RunEvent struct {
	Record RunRecord `json:"record"`
}
