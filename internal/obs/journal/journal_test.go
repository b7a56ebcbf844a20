package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"icb/internal/core"
	"icb/internal/obs"
)

func testMeta() Meta {
	return Meta{
		Program: "wsq", Bug: "steal-unlocked", Strategy: "icb",
		Workers: 1, MaxBound: 2, CheckRaces: true,
	}
}

// TestCheckpointSaveLoadSaveByteStable pins the serialization round trip:
// Save → Load → Save must reproduce the file byte for byte, so resumed
// campaigns re-checkpoint deterministically and checkpoint diffs in CI are
// meaningful. The search state comes from a real (small) exploration so
// every field is exercised, including the sorted fingerprint sets.
func TestCheckpointSaveLoadSaveByteStable(t *testing.T) {
	prog := wsqStealUnlocked(t)
	cs := &capSink{}
	opt := wsqOptions()
	opt.StateCache = true
	opt.Checkpoint = cs
	core.Explore(prog, core.ICB{}, opt)
	if len(cs.snaps) < 10 {
		t.Fatalf("want >= 10 snapshots, got %d", len(cs.snaps))
	}

	dir := t.TempDir()
	for _, i := range []int{0, len(cs.snaps) / 2, len(cs.snaps) - 1} {
		var st core.SearchState
		if err := json.Unmarshal(cs.snaps[i], &st); err != nil {
			t.Fatal(err)
		}
		c := &Checkpoint{
			Version: CheckpointVersion, RunID: "run-test", ConfigHash: testMeta().Hash(),
			Meta: testMeta(), Seq: i + 1, Final: i == len(cs.snaps)-1,
			SavedUnixNS: 1234567890, State: st,
		}
		p1 := filepath.Join(dir, CheckpointName)
		if err := c.Save(p1); err != nil {
			t.Fatal(err)
		}
		b1, err := os.ReadFile(p1)
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadCheckpoint(dir)
		if err != nil {
			t.Fatalf("snapshot %d does not load back: %v", i, err)
		}
		p2 := filepath.Join(dir, "again.json")
		if err := loaded.Save(p2); err != nil {
			t.Fatal(err)
		}
		b2, err := os.ReadFile(p2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, b2) {
			t.Errorf("snapshot %d: Save -> Load -> Save is not byte-stable", i)
		}
		if fi, err := os.Stat(p1 + ".tmp"); err == nil {
			t.Errorf("stray temp file left behind: %v", fi.Name())
		}
	}
}

// TestLoadCheckpointRejects covers the refuse-to-misinterpret paths.
func TestLoadCheckpointRejects(t *testing.T) {
	dir := t.TempDir()
	if _, err := LoadCheckpoint(dir); !os.IsNotExist(errUnwrapAll(err)) {
		t.Errorf("missing checkpoint: got %v, want not-exist", err)
	}

	path := filepath.Join(dir, CheckpointName)
	os.WriteFile(path, []byte("{ truncated"), 0o644)
	if _, err := LoadCheckpoint(dir); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Errorf("corrupt checkpoint: got %v", err)
	}

	c := &Checkpoint{Version: CheckpointVersion + 7, RunID: "x", Meta: testMeta()}
	c.ConfigHash = c.Meta.Hash()
	if err := c.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(dir); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("future version: got %v", err)
	}

	c.Version = CheckpointVersion
	c.ConfigHash = "0000000000000000" // does not match Meta
	if err := c.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(dir); err == nil || !strings.Contains(err.Error(), "hash") {
		t.Errorf("hash mismatch: got %v", err)
	}
}

func errUnwrapAll(err error) error {
	for {
		type unwrapper interface{ Unwrap() error }
		u, ok := err.(unwrapper)
		if !ok {
			return err
		}
		err = u.Unwrap()
	}
}

// TestWriterEndToEnd runs a real search through a journal Writer and
// checks the durable outputs: a final checkpoint that reads back as
// completed, one ledger record with identity and first-bug metrics filled
// in, and an event segment carrying checkpoint + run_record events.
func TestWriterEndToEnd(t *testing.T) {
	prog := wsqStealUnlocked(t)
	dir := t.TempDir()
	w, err := New(Config{Dir: dir, Meta: testMeta(), Every: -1})
	if err != nil {
		t.Fatal(err)
	}
	opt := wsqOptions()
	opt.Checkpoint = w
	opt.Sink = w
	res := core.Explore(prog, core.ICB{}, opt)
	rec := BuildRunRecord(res)
	if err := w.FinishRun(rec); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	ck, err := LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !ck.Completed() {
		t.Errorf("final checkpoint not completed: final=%v seeds=%d next=%d",
			ck.Final, len(ck.State.SeedQueue), len(ck.State.NextWork))
	}
	if ck.RunID != w.RunID() || ck.ConfigHash != testMeta().Hash() {
		t.Errorf("checkpoint identity: run=%q config=%q", ck.RunID, ck.ConfigHash)
	}

	runs, err := ReadRuns(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 {
		t.Fatalf("ledger has %d records, want 1", len(runs))
	}
	r := runs[0]
	if r.RunID != w.RunID() || r.Program != "wsq" || r.Strategy != "icb" {
		t.Errorf("record identity: %+v", r)
	}
	if r.Executions != res.Executions || len(r.Bugs) != len(res.Bugs) {
		t.Errorf("record stats: execs=%d bugs=%d, want %d and %d",
			r.Executions, len(r.Bugs), res.Executions, len(res.Bugs))
	}
	if r.FirstBugExecution == 0 || r.FirstBugNS == 0 {
		t.Errorf("first-bug metrics not filled: execution=%d wall=%d", r.FirstBugExecution, r.FirstBugNS)
	}
	if r.Checkpoints == 0 {
		t.Error("record shows zero checkpoints")
	}

	seg, err := os.ReadFile(filepath.Join(dir, "events-"+w.RunID()+".ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"event":"checkpoint"`, `"event":"run_record"`, `"event":"bug_found"`} {
		if !strings.Contains(string(seg), want) {
			t.Errorf("segment log is missing %s", want)
		}
	}
}

// TestReadRunsCrashTolerance pins the ledger's crash semantics: a torn
// final line (no trailing newline) reads as absent, corruption anywhere
// else is an error.
func TestReadRunsCrashTolerance(t *testing.T) {
	dir := t.TempDir()
	if runs, err := ReadRuns(dir); err != nil || runs != nil {
		t.Fatalf("missing ledger: got %v, %v", runs, err)
	}
	for _, id := range []string{"a", "b"} {
		if err := AppendRun(dir, &obs.RunRecord{RunID: id, Executions: 5}); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, LedgerName)
	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	f.WriteString(`{"run_id":"c","exec`) // torn mid-append, no newline
	f.Close()

	runs, err := ReadRuns(dir)
	if err != nil {
		t.Fatalf("torn tail should read cleanly: %v", err)
	}
	if len(runs) != 2 || runs[0].RunID != "a" || runs[1].RunID != "b" {
		t.Fatalf("got %d records %+v, want the 2 intact ones", len(runs), runs)
	}

	os.WriteFile(path, []byte("{\"run_id\":\"a\"}\nnot json\n{\"run_id\":\"b\"}\n"), 0o644)
	if _, err := ReadRuns(dir); err == nil {
		t.Error("mid-file corruption should be an error")
	}
}

// TestReadRunsConcurrentAppenders pins the multi-process ledger contract a
// fleet relies on (several icb workers sharing one -journal-dir): O_APPEND
// writes whole lines atomically, so concurrent appenders never interleave
// within a record, and a reader racing the appends only ever sees intact
// prefixes — never a mid-file corruption error. A crash mid-append on top
// of the concurrent history still reads as a skipped torn tail.
func TestReadRunsConcurrentAppenders(t *testing.T) {
	dir := t.TempDir()
	const writers, each = 8, 25

	// The racing reader: every read during the append storm must be clean.
	stop := make(chan struct{})
	readErr := make(chan error, 1)
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := ReadRuns(dir); err != nil {
				select {
				case readErr <- err:
				default:
				}
				return
			}
		}
	}()

	var appenders sync.WaitGroup
	for w := 0; w < writers; w++ {
		appenders.Add(1)
		go func(w int) {
			defer appenders.Done()
			for i := 0; i < each; i++ {
				rec := &obs.RunRecord{RunID: fmt.Sprintf("w%d-%d", w, i), Executions: 5}
				if err := AppendRun(dir, rec); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	appenders.Wait()
	close(stop)
	readers.Wait()
	select {
	case err := <-readErr:
		t.Fatalf("reader racing concurrent appenders hit corruption: %v", err)
	default:
	}

	// One more writer crashes mid-append; the torn tail must not cost any
	// of the concurrently appended records.
	f, err := os.OpenFile(filepath.Join(dir, LedgerName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"run_id":"torn`)
	f.Close()

	runs, err := ReadRuns(dir)
	if err != nil {
		t.Fatalf("torn tail over a concurrent ledger should read cleanly: %v", err)
	}
	if len(runs) != writers*each {
		t.Fatalf("read %d records, want %d (no record lost or interleaved)", len(runs), writers*each)
	}
	seen := make(map[string]bool, len(runs))
	for _, r := range runs {
		seen[r.RunID] = true
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < each; i++ {
			if id := fmt.Sprintf("w%d-%d", w, i); !seen[id] {
				t.Errorf("record %s missing from the ledger", id)
			}
		}
	}
}

// TestDiffAndTrend covers the regression calculus over synthetic records.
func TestDiffAndTrend(t *testing.T) {
	h := testMeta().Hash()
	old := &obs.RunRecord{
		RunID: "r1", ConfigHash: h, StartUnixNS: 100, DurationNS: int64(time.Second),
		Executions: 1000, States: 500, Classes: 100, BoundCompleted: 3,
		FirstBugExecution: 40, FirstBugNS: 7e6, AtlasSites: 12, Exhausted: false,
		BoundStats: []obs.RunBoundStat{{Bound: 2, Executions: 160}},
		Bugs:       []obs.RunBug{{Kind: "assertion failure", Message: "item 1 taken twice", Execution: 40}},
	}
	same := *old
	same.RunID, same.StartUnixNS = "r2", 200
	if regs, err := Diff(old, &same, 0.05); err != nil || len(regs) != 0 {
		t.Errorf("identical runs: regs=%v err=%v", regs, err)
	}

	worse := same
	worse.RunID, worse.StartUnixNS = "r3", 300
	worse.Bugs = nil // lost the bug
	worse.FirstBugExecution = 0
	worse.BoundCompleted = 2
	worse.States = 400 // -20%, over tolerance
	worse.BoundStats = []obs.RunBoundStat{{Bound: 2, Executions: 200}}
	regs, err := Diff(old, &worse, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, r := range regs {
		got[r.Metric] = true
	}
	for _, want := range []string{"bug_set", "bound_completed", "states", "bound_2_executions"} {
		if !got[want] {
			t.Errorf("missing regression %q in %v", want, regs)
		}
	}
	if got["first_bug_execution"] {
		t.Error("first_bug_execution should not fire when the new run found no bug (bug_set already covers it)")
	}

	// Wall clock is never gated: a slower run is not a regression.
	slow := same
	slow.RunID, slow.StartUnixNS = "r4", 400
	slow.DurationNS = old.DurationNS * 3
	slow.FirstBugNS = old.FirstBugNS * 3
	if regs, _ := Diff(old, &slow, 0.05); len(regs) != 0 {
		t.Errorf("wall clock gated: %v", regs)
	}

	// Different configs never compare.
	alien := same
	alien.ConfigHash = "ffffffffffffffff"
	if _, err := Diff(old, &alien, 0.05); err == nil {
		t.Error("cross-config diff should be an error")
	}

	// Trend orders by start time and chains deltas within a config.
	pts := Trend([]obs.RunRecord{worse, *old, same})
	if len(pts) != 3 || pts[0].RunID != "r1" || pts[2].RunID != "r3" {
		t.Fatalf("trend order: %+v", pts)
	}
	if pts[1].DeltaStates != 0 || pts[2].DeltaStates != -100 {
		t.Errorf("delta chain: %+v", pts)
	}
	if pts[0].ExecsPerSec < 999 || pts[0].ExecsPerSec > 1001 {
		t.Errorf("execs/sec: %v", pts[0].ExecsPerSec)
	}
}

// TestMetaHashSensitivity: the config hash must move when any
// search-shaping field moves, and stay put otherwise.
func TestMetaHashSensitivity(t *testing.T) {
	base := testMeta()
	if base.Hash() != testMeta().Hash() {
		t.Fatal("hash is not deterministic")
	}
	variants := []Meta{base, base, base, base}
	variants[0].MaxBound = 3
	variants[1].StateCache = true
	variants[2].Workers = 4
	variants[3].Program = "ape"
	for i, v := range variants {
		if v.Hash() == base.Hash() {
			t.Errorf("variant %d collides with the base hash", i)
		}
	}
}
