// Package journal is the campaign durability layer: a crash-safe,
// append-only store that makes long searches survivable and comparable
// across process lives and across runs.
//
// One journal directory holds one campaign:
//
//	checkpoint.json        the latest search-state snapshot (atomic
//	                       tmp+rename replace; versioned)
//	events-<runid>.ndjson  the structured event stream, one segment per
//	                       process life (the segmented event log)
//	runs.ndjson            the campaign ledger: one RunRecord line per
//	                       finished (or interrupted) run, append-only
//	atlas.json             the coverage atlas merged across runs (written
//	                       by the command layer via coverage.MergeFile)
//
// The Writer plays two roles at once: it is the engine's
// core.CheckpointSink (periodic and final snapshots) and an obs.Sink
// (the segment event log plus first-bug wall-clock accounting for the run
// record). Everything it writes is either replaced atomically
// (checkpoint.json) or strictly appended (NDJSON files), so a crash at any
// instant leaves the previous state readable — the property the paper's
// long coverage campaigns need to be practical, and the concrete stepping
// stone to the ROADMAP's resumable distributed campaign service.
package journal

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"icb/internal/core"
	"icb/internal/obs"
)

// CheckpointVersion is stamped on every checkpoint.json; Load rejects
// versions it does not understand rather than resuming from a
// misinterpreted snapshot.
const CheckpointVersion = 1

// CheckpointName is the snapshot file name within a journal directory.
const CheckpointName = "checkpoint.json"

// LedgerName is the campaign ledger file name within a journal directory.
const LedgerName = "runs.ndjson"

// AtlasName is the merged coverage-atlas file name within a journal
// directory.
const AtlasName = "atlas.json"

// DefaultEvery is the default periodic checkpoint interval.
const DefaultEvery = 2 * time.Second

// Meta identifies the search configuration a journal's snapshots belong
// to. Resuming under a different configuration is rejected (ConfigHash
// mismatch): a snapshot's replay schedules are only meaningful against the
// exact program and search settings that produced them.
type Meta struct {
	// Program and Bug identify the program under test and its seeded bug
	// variant ("" for the correct variant).
	Program string `json:"program"`
	Bug     string `json:"bug,omitempty"`
	// Strategy is the search strategy name ("icb", "icb-w4", ...).
	Strategy string `json:"strategy"`
	// Workers is the parallel worker count (1 for sequential).
	Workers int `json:"workers"`
	// MaxBound is the preemption budget (-1 for unbounded).
	MaxBound int `json:"max_bound"`
	// MaxExecutions and MaxSteps are the execution budget and per-run step
	// bound (0 for defaults).
	MaxExecutions int `json:"max_executions,omitempty"`
	MaxSteps      int `json:"max_steps,omitempty"`
	// Seed is the campaign seed for randomized drivers (0 when unused).
	Seed int64 `json:"seed,omitempty"`
	// StateCache, CheckRaces, Goldilocks, EveryAccess, FirstBug mirror the
	// search flags that change what the search explores or reports.
	StateCache  bool `json:"state_cache"`
	CheckRaces  bool `json:"check_races"`
	Goldilocks  bool `json:"goldilocks,omitempty"`
	EveryAccess bool `json:"every_access,omitempty"`
	FirstBug    bool `json:"first_bug"`
	// BPOR records that bounded partial-order reduction generated the
	// frontier: a reduced run's work queues are not interchangeable with an
	// unreduced run's, so the flag is part of the configuration hash
	// (omitempty keeps hashes of pre-BPOR journals unchanged).
	BPOR bool `json:"bpor,omitempty"`
}

// Hash returns the configuration fingerprint: 16 hex digits of FNV-64a
// over the canonical JSON encoding. Runs (and resumes) are comparable only
// when their hashes match.
func (m Meta) Hash() string {
	js, err := json.Marshal(m)
	if err != nil {
		// Meta is a plain struct of scalars; Marshal cannot fail.
		panic(fmt.Sprintf("journal: marshal meta: %v", err))
	}
	h := fnv.New64a()
	h.Write(js)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Checkpoint is the on-disk snapshot format (checkpoint.json).
type Checkpoint struct {
	// Version is the file format version (CheckpointVersion).
	Version int `json:"version"`
	// RunID is the process life that wrote the snapshot; ParentRunID the
	// run it resumed from, if any.
	RunID       string `json:"run_id"`
	ParentRunID string `json:"parent_run_id,omitempty"`
	// ConfigHash is Meta.Hash() of Meta, stored redundantly so a resume
	// can verify compatibility before interpreting anything else.
	ConfigHash string `json:"config_hash"`
	Meta       Meta   `json:"meta"`
	// Seq is the snapshot's 1-based ordinal within the run; Final marks
	// the run's last snapshot (stop, budget, completion).
	Seq   int  `json:"seq"`
	Final bool `json:"final,omitempty"`
	// SavedUnixNS is the wall-clock save time.
	SavedUnixNS int64 `json:"saved_unix_ns"`
	// State is the engine's serialized search state: the resumable core of
	// the snapshot.
	State core.SearchState `json:"state"`
	// Metrics and Profile are observational context (the live counter
	// snapshot and the search profiler's data), persisted for post-mortem
	// inspection; a resume does not restore them.
	Metrics *obs.Snapshot    `json:"metrics,omitempty"`
	Profile *obs.ProfileData `json:"profile,omitempty"`
}

// Completed reports that the snapshot describes a finished search: either
// it exhausted the schedule space, or what remains (the end-of-budget
// snapshot's next-bound queue) is unreachable under the stored
// configuration's bound. Resuming a completed campaign is a no-op; raising
// the bound (a different config) starts a fresh campaign instead. A
// snapshot whose queues are empty is not necessarily complete: a stop
// right after a bound's last execution leaves the bound to retire, and
// items deferred two bounds ahead or held sightings may remain.
func (c *Checkpoint) Completed() bool {
	if !c.Final {
		return false
	}
	return c.State.Result.Exhausted || c.Meta.MaxBound >= 0 && c.State.Bound > c.Meta.MaxBound
}

// Save writes the checkpoint atomically to path: marshal, write to a
// sibling temp file, fsync, rename. A crash mid-save leaves the previous
// checkpoint intact; a crash between fsync and rename leaves a stray
// .tmp file that the next Save replaces.
func (c *Checkpoint) Save(path string) error {
	js, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return fmt.Errorf("journal: marshal checkpoint: %w", err)
	}
	js = append(js, '\n')
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(js); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// LoadCheckpoint reads a journal directory's snapshot. It fails with a
// wrapped os.ErrNotExist when the directory has no checkpoint, and rejects
// unknown versions and mismatched inner config hashes.
func LoadCheckpoint(dir string) (*Checkpoint, error) {
	path := filepath.Join(dir, CheckpointName)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c Checkpoint
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("journal: corrupt checkpoint %s: %w", path, err)
	}
	if c.Version != CheckpointVersion {
		return nil, fmt.Errorf("journal: checkpoint %s has version %d, this binary reads %d", path, c.Version, CheckpointVersion)
	}
	if got := c.Meta.Hash(); got != c.ConfigHash {
		return nil, fmt.Errorf("journal: checkpoint %s config hash %s does not match its meta (%s): file corrupted or hand-edited", path, c.ConfigHash, got)
	}
	return &c, nil
}

// Config configures a Writer.
type Config struct {
	// Dir is the journal directory (created if missing).
	Dir string
	// Meta is the search configuration identity.
	Meta Meta
	// Every is the periodic checkpoint interval (0: DefaultEvery;
	// negative: periodic checkpoints off, barrier/final snapshots only).
	Every time.Duration
	// ParentRunID marks this run as a resume of an earlier one.
	ParentRunID string
	// Metrics, when non-nil, has a counter snapshot embedded into every
	// checkpoint (and, transitively, the attached profiler/coverage
	// snapshots it carries).
	Metrics *obs.Metrics
	// Profile, when non-nil, has the profiler snapshot embedded into every
	// checkpoint.
	Profile obs.ProfileSource
}

// Writer is one run's journal session: the engine's checkpoint sink, the
// segment event log, and the run-record accounting. Create with New, wire
// into core.Options (Checkpoint) and the sink fan-out (obs.Sink), then
// FinishRun + Close when the search returns.
type Writer struct {
	cfg   Config
	runID string
	// events is the segment log: a plain NDJSON sink over
	// events-<runid>.ndjson. All obs.Sink methods forward to it.
	events *obs.NDJSON
	file   *os.File
	// nextDue is the unix-nano deadline of the next periodic checkpoint
	// (atomic: Due is called from the exploring goroutine, Capture updates
	// it; MaxInt64 when periodic checkpoints are off).
	nextDue atomic.Int64

	mu    sync.Mutex
	start time.Time
	seq   int
	// bugWall records the wall time from run start to each distinct
	// defect's first sighting this process life.
	bugWall  map[string]bugSighting
	captures int
}

type bugSighting struct {
	wallNS    int64
	execution int
}

// New opens (creating if needed) a journal directory and starts a new run
// segment in it.
func New(cfg Config) (*Writer, error) {
	if cfg.Dir == "" {
		return nil, errors.New("journal: empty directory")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	if cfg.Every == 0 {
		cfg.Every = DefaultEvery
	}
	now := time.Now()
	runID := fmt.Sprintf("run-%s-p%d", now.UTC().Format("20060102T150405.000000000"), os.Getpid())
	runID = strings.ReplaceAll(runID, ".", "_")
	f, err := os.Create(filepath.Join(cfg.Dir, "events-"+runID+".ndjson"))
	if err != nil {
		return nil, err
	}
	w := &Writer{
		cfg:     cfg,
		runID:   runID,
		events:  obs.NewNDJSON(f),
		file:    f,
		start:   now,
		bugWall: make(map[string]bugSighting),
	}
	if cfg.Every > 0 {
		w.nextDue.Store(now.Add(cfg.Every).UnixNano())
	} else {
		w.nextDue.Store(int64(1)<<62 - 1)
	}
	return w, nil
}

// RunID returns this run's segment identifier.
func (w *Writer) RunID() string { return w.runID }

// Dir returns the journal directory.
func (w *Writer) Dir() string { return w.cfg.Dir }

// Checkpoints returns the number of snapshots captured so far.
func (w *Writer) Checkpoints() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.captures
}

// Due implements core.CheckpointSink: one clock read and one atomic load
// per execution boundary.
func (w *Writer) Due() bool {
	return time.Now().UnixNano() >= w.nextDue.Load()
}

// Capture implements core.CheckpointSink: persist the snapshot atomically
// and re-arm the periodic deadline. Errors are recorded in the segment log
// (a checkpoint failure must not kill a running search; the next capture
// retries).
func (w *Writer) Capture(st *core.SearchState, final bool) {
	w.mu.Lock()
	w.seq++
	seq := w.seq
	w.captures++
	w.mu.Unlock()
	c := &Checkpoint{
		Version:     CheckpointVersion,
		RunID:       w.runID,
		ParentRunID: w.cfg.ParentRunID,
		ConfigHash:  w.cfg.Meta.Hash(),
		Meta:        w.cfg.Meta,
		Seq:         seq,
		Final:       final,
		SavedUnixNS: time.Now().UnixNano(),
		State:       *st,
	}
	if w.cfg.Metrics != nil {
		snap := w.cfg.Metrics.Snapshot()
		c.Metrics = &snap
	}
	if w.cfg.Profile != nil {
		p := w.cfg.Profile.Profile()
		c.Profile = &p
	}
	if err := c.Save(filepath.Join(w.cfg.Dir, CheckpointName)); err != nil {
		w.events.Checkpoint(obs.CheckpointEvent{Seq: seq, Bound: st.Bound, Final: final})
		fmt.Fprintf(os.Stderr, "journal: checkpoint %d failed: %v\n", seq, err)
		return
	}
	if w.cfg.Every > 0 {
		w.nextDue.Store(time.Now().Add(w.cfg.Every).UnixNano())
	}
	w.events.Checkpoint(obs.CheckpointEvent{
		Seq:        seq,
		Bound:      st.Bound,
		Executions: st.Result.Executions,
		States:     len(st.States),
		Classes:    len(st.Classes),
		Bugs:       len(st.Result.Bugs),
		SeedQueue:  len(st.SeedQueue),
		NextWork:   len(st.NextWork),
		Scheduler:  st.Scheduler,
		NextWork2:  len(st.NextWork2),
		HeldBugs:   len(st.Held),
		Final:      final,
	})
}

// FinishRun completes the record with this run's identity and first-bug
// wall times, appends it to the campaign ledger, and flushes the segment
// log. Call once, after the search returns and the record's search fields
// (executions, bugs, bounds, atlas deltas) are filled in.
func (w *Writer) FinishRun(rec *obs.RunRecord) error {
	w.mu.Lock()
	rec.RunID = w.runID
	rec.ParentRunID = w.cfg.ParentRunID
	rec.ConfigHash = w.cfg.Meta.Hash()
	rec.Program = w.cfg.Meta.Program
	rec.Strategy = w.cfg.Meta.Strategy
	rec.Seed = w.cfg.Meta.Seed
	rec.Workers = w.cfg.Meta.Workers
	rec.MaxBound = w.cfg.Meta.MaxBound
	rec.StartUnixNS = w.start.UnixNano()
	rec.Resumed = w.cfg.ParentRunID != ""
	rec.Checkpoints = w.captures
	for i := range rec.Bugs {
		b := &rec.Bugs[i]
		if s, ok := w.bugWall[b.Kind+"\x00"+b.Message]; ok && s.execution == b.Execution {
			// Wall time is only meaningful for bugs first sighted in this
			// process life; restored bugs keep WallNS 0.
			b.WallNS = s.wallNS
		}
	}
	if rec.FirstBugExecution == 0 && len(rec.Bugs) > 0 {
		first := rec.Bugs[0]
		for _, b := range rec.Bugs[1:] {
			if b.Execution < first.Execution {
				first = b
			}
		}
		rec.FirstBugExecution = first.Execution
		rec.FirstBugNS = first.WallNS
	}
	w.mu.Unlock()

	w.events.RunRecorded(obs.RunEvent{Record: *rec})
	if err := AppendRun(w.cfg.Dir, rec); err != nil {
		return err
	}
	return w.events.Flush()
}

// Close flushes and closes the segment log. The Writer is unusable after.
func (w *Writer) Close() error {
	err := w.events.Flush()
	if cerr := w.file.Close(); err == nil {
		err = cerr
	}
	return err
}

// AppendRun appends one record line to a journal directory's campaign
// ledger, creating it if needed. O_APPEND keeps concurrent appenders from
// interleaving within a line on POSIX filesystems.
func AppendRun(dir string, rec *obs.RunRecord) error {
	js, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("journal: marshal run record: %w", err)
	}
	js = append(js, '\n')
	f, err := os.OpenFile(filepath.Join(dir, LedgerName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(js); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadRuns reads a journal directory's campaign ledger in append order. A
// trailing partial line (a crash mid-append) is skipped; a malformed line
// elsewhere is an error. A missing ledger reads as empty: a journal
// directory with only a checkpoint has no finished runs yet.
func ReadRuns(dir string) ([]obs.RunRecord, error) {
	data, err := os.ReadFile(filepath.Join(dir, LedgerName))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	lines := strings.Split(string(data), "\n")
	var runs []obs.RunRecord
	for i, line := range lines {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var rec obs.RunRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			if i == len(lines)-1 {
				// No trailing newline: a crash mid-append truncated the
				// last record. The ledger up to here is intact.
				break
			}
			return nil, fmt.Errorf("journal: corrupt ledger line %d in %s: %w", i+1, dir, err)
		}
		runs = append(runs, rec)
	}
	return runs, nil
}

// Sink methods: the Writer forwards the engine's event stream verbatim to
// its segment log, and additionally tracks first-bug wall times for the
// run record.

// ExecutionDone implements obs.Sink.
func (w *Writer) ExecutionDone(ev obs.ExecutionEvent) { w.events.ExecutionDone(ev) }

// BoundStart implements obs.Sink.
func (w *Writer) BoundStart(ev obs.BoundEvent) { w.events.BoundStart(ev) }

// BoundComplete implements obs.Sink.
func (w *Writer) BoundComplete(ev obs.BoundEvent) { w.events.BoundComplete(ev) }

// BugFound implements obs.Sink.
func (w *Writer) BugFound(ev obs.BugEvent) {
	w.mu.Lock()
	k := ev.Kind + "\x00" + ev.Message
	if _, seen := w.bugWall[k]; !seen {
		w.bugWall[k] = bugSighting{
			wallNS:    time.Since(w.start).Nanoseconds(),
			execution: ev.Execution,
		}
	}
	w.mu.Unlock()
	w.events.BugFound(ev)
}

// CacheHit implements obs.Sink.
func (w *Writer) CacheHit(ev obs.CacheEvent) { w.events.CacheHit(ev) }

// Profile implements obs.Sink.
func (w *Writer) Profile(ev obs.ProfileEvent) { w.events.Profile(ev) }

// CampaignProgress implements obs.Sink.
func (w *Writer) CampaignProgress(ev obs.CampaignEvent) { w.events.CampaignProgress(ev) }

// Checkpoint implements obs.Sink. Capture already logs its own checkpoint
// events with full frontier context, so engine-originated duplicates are
// dropped rather than logged twice.
func (w *Writer) Checkpoint(obs.CheckpointEvent) {}

// Resumed implements obs.Sink.
func (w *Writer) Resumed(ev obs.ResumeEvent) { w.events.Resumed(ev) }

// RunRecorded implements obs.Sink. FinishRun logs the authoritative
// record; duplicates from the fan-out are dropped.
func (w *Writer) RunRecorded(obs.RunEvent) {}

// BPORStats implements obs.Sink.
func (w *Writer) BPORStats(ev obs.BPORStatsEvent) { w.events.BPORStats(ev) }

// SearchDone implements obs.Sink.
func (w *Writer) SearchDone(ev obs.SearchEvent) { w.events.SearchDone(ev) }
