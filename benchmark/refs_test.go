package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"icb/internal/core"
	"icb/internal/fuzz"
)

func TestCheck(t *testing.T) {
	refs := defaultRefs()
	refs.oracle = map[string]*fuzz.Truth{
		"gen/1": {
			Bugs:           map[fuzz.BugID]*fuzz.BugTruth{{Kind: core.BugDeadlock, Msg: "stuck"}: {MinPreemptions: 1}},
			MinPreemptions: 1,
		},
	}
	firstBug := searchConfig{Workers: 1, StopOnFirstBug: true}
	drain := searchConfig{Workers: 1}
	reduced := searchConfig{Workers: 1, BPOR: true}
	coverage := searchConfig{Workers: 2, StateCache: true}
	gen := inProgram{Name: "gen/1", Bound: -1}
	variant := inProgram{Name: "wsq/steal-unlocked", Bound: -1}
	wsq := inProgram{Name: "wsq", Bound: 2}
	for _, c := range []struct {
		name string
		p    inProgram
		cfg  searchConfig
		rec  record
		ok   bool
	}{
		{"oracle bug at its minimum", gen, firstBug, record{Bugs: 1, Kind: core.BugDeadlock, Message: "stuck", Preemptions: 1}, true},
		{"bug outside the oracle's set", gen, firstBug, record{Bugs: 1, Kind: core.BugAssert, Message: "stuck", Preemptions: 1}, false},
		{"oracle bug past its minimum", gen, firstBug, record{Bugs: 1, Kind: core.BugDeadlock, Message: "stuck", Preemptions: 2}, false},
		{"no bug found", gen, firstBug, record{}, false},
		{"table-2 bug", variant, firstBug, record{Bugs: 1, Kind: core.BugAssert, Preemptions: 2}, true},
		{"table-2 bug of another kind", variant, firstBug, record{Bugs: 1, Kind: core.BugRace, Preemptions: 2}, false},
		{"variant without a reference", inProgram{Name: "wsq/new"}, firstBug, record{Bugs: 1}, false},
		{"pinned drain", wsq, drain, record{BoundCompleted: 2, Executions: 336, States: 7792, Classes: 199}, true},
		{"drain off its pin", wsq, drain, record{BoundCompleted: 2, Executions: 337, States: 7792, Classes: 199}, false},
		{"drain short of its bound", wsq, drain, record{BoundCompleted: 1, Executions: 336, States: 7792, Classes: 199}, false},
		{"drain finding a bug", wsq, drain, record{BoundCompleted: 2, Bugs: 1, Executions: 336, States: 7792, Classes: 199}, false},
		{"reduced drain saving executions", wsq, reduced, record{BoundCompleted: 2, Executions: 300, Classes: 199}, true},
		{"reduced drain losing a class", wsq, reduced, record{BoundCompleted: 2, Executions: 300, Classes: 198}, false},
		{"reduced drain running more", wsq, reduced, record{BoundCompleted: 2, Executions: 337, Classes: 199}, false},
		{"coverage is judged by its bound", inProgram{Name: "wsq", Bound: 3}, coverage, record{BoundCompleted: 3, Executions: 1}, true},
	} {
		why := refs.check(c.p, c.cfg, c.rec)
		if (why == "") != c.ok {
			t.Errorf("%s: check = %q, want ok=%v", c.name, why, c.ok)
		}
	}
}

// TestPerturbedReferenceFailsTheRun runs real searches against references
// with one entry off by one: the run must count wrong verdicts, report a
// positive fail_frac and exit 1.
func TestPerturbedReferenceFailsTheRun(t *testing.T) {
	for _, c := range []struct {
		name, workload string
		perturb        func(*references)
	}{
		{"table-2 bound off by one", "first-bug", func(r *references) {
			r.table2["wsq/pop-unreserved-read"] = bugRef{"assertion failure", 2}
		}},
		{"pinned class count off by one", "drain", func(r *references) {
			pin := r.drains["wsq"]
			pin.classes++
			r.drains["wsq"] = pin
		}},
	} {
		refs := defaultRefs()
		c.perturb(&refs)
		w, _ := findWorkload(c.workload)
		dir := t.TempDir()
		var out bytes.Buffer
		code := runAll(context.Background(), &out, []workload{w}, runConfig{seed: 1, seconds: 0.01, small: true, out: dir}, refs)
		if code != 1 {
			t.Errorf("%s: exit code %d, want 1", c.name, code)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var line struct {
			Correct bool `json:"correct"`
			Failed  int  `json:"failed"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("%s: last line is not the JSON result: %v", c.name, err)
		}
		if line.Correct || line.Failed == 0 {
			t.Errorf("%s: result line %q does not report the wrong verdicts", c.name, lines[len(lines)-1])
		}
		raw, err := os.ReadFile(filepath.Join(dir, "results.json"))
		if err != nil {
			t.Fatal(err)
		}
		var rf resultsFile
		if err := json.Unmarshal(raw, &rf); err != nil {
			t.Fatal(err)
		}
		if len(rf.Runs) != 1 || rf.Runs[0].FailFrac <= 0 {
			t.Errorf("%s: results.json does not record fail_frac > 0: %+v", c.name, rf.Runs)
		}
	}
}
