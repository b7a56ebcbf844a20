package exper

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"icb/internal/core"
	"icb/internal/progs/wsq"
)

// TestTable2MatchesPaper is the headline reproduction check: the
// per-bound bug distribution of Table 2, re-measured from scratch by the
// checker, must match the paper's row for row.
func TestTable2MatchesPaper(t *testing.T) {
	rows, err := Table2Data(Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := []Table2Row{
		{Name: "Bluetooth", Total: 1, AtBound: [4]int{0, 1, 0, 0}, Known: true},
		{Name: "Work Stealing Queue", Total: 3, AtBound: [4]int{0, 1, 2, 0}, Known: true},
		{Name: "Transaction Manager", Total: 3, AtBound: [4]int{0, 0, 2, 1}, Known: true},
		{Name: "APE", Total: 4, AtBound: [4]int{2, 1, 1, 0}},
		{Name: "Dryad Channels", Total: 5, AtBound: [4]int{1, 4, 0, 0}},
	}
	if len(rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(rows), len(want))
	}
	for i, w := range want {
		got := rows[i]
		got.Time = 0 // wall-clock, not comparable
		// Per-bound wall clock: sanity-check then zero for the same reason.
		for b, d := range got.BoundTime {
			if got.AtBound[b] > 0 && d <= 0 {
				t.Errorf("row %d (%s): bound %d found bugs but has no wall time", i, got.Name, b)
			}
		}
		got.BoundTime = [4]time.Duration{}
		// The coverage column: the zing-based Transaction Manager reports
		// no atlas (-1); every sched-based row must have preemption sites.
		if got.Name == "Transaction Manager" {
			if got.PSites != -1 {
				t.Errorf("row %d (%s): PSites = %d, want -1 (no atlas for zing)", i, got.Name, got.PSites)
			}
		} else if got.PSites <= 0 {
			t.Errorf("row %d (%s): PSites = %d, want > 0", i, got.Name, got.PSites)
		}
		got.PSites = 0 // search-dependent magnitude, checked above
		if got != w {
			t.Errorf("row %d:\n got %+v\nwant %+v", i, got, w)
		}
	}
	// The paper's key claim: every previously-unknown bug (APE, Dryad)
	// needs at most 2 preemptions.
	for _, r := range rows[3:] {
		if r.AtBound[3] != 0 {
			t.Errorf("%s has a previously-unknown bug above bound 2", r.Name)
		}
	}
}

func TestTable1Sane(t *testing.T) {
	rows, err := Table1Data(Config{Budget: 200})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	for _, r := range rows {
		if r.LOC <= 0 || r.Threads < 2 || r.MaxK <= 0 || r.MaxB <= 0 {
			t.Errorf("degenerate row: %+v", r)
		}
		// Preemption maxima must exceed the bound at which all bugs appear,
		// the contrast the paper draws ("executions with at least 35
		// preemptions" vs bugs within 2).
		if r.Name != "Transaction Manager" && r.MaxC < 4 {
			t.Errorf("%s: max preemptions %d suspiciously low", r.Name, r.MaxC)
		}
	}
}

func TestFig1ShapeSmall(t *testing.T) {
	// Reduced work-stealing queue: checks the Figure 1 shape cheaply.
	points, err := boundSweep(wsq.Program(wsq.Correct, wsq.Params{Items: 2, Size: 2}), Config{})
	if err != nil {
		t.Fatal(err)
	}
	assertCoverageShape(t, points, 10)
}

func TestFig1ShapeFull(t *testing.T) {
	if testing.Short() {
		t.Skip("full work-stealing-queue sweep takes ~30s")
	}
	points, err := Fig1Data(Config{})
	if err != nil {
		t.Fatal(err)
	}
	assertCoverageShape(t, points, 10)
}

// assertCoverageShape checks the paper's Figure 1/4 claims: coverage is
// monotone, reaches 90% within nineteyPctBound, and ends at 100%.
func assertCoverageShape(t *testing.T, points []BoundPercent, ninetyPctBound int) {
	t.Helper()
	if len(points) == 0 {
		t.Fatal("no points")
	}
	reached90 := -1
	for i, p := range points {
		if i > 0 && p.Percent < points[i-1].Percent {
			t.Fatalf("coverage not monotone at bound %d", p.Bound)
		}
		if reached90 == -1 && p.Percent >= 90 {
			reached90 = p.Bound
		}
	}
	last := points[len(points)-1]
	if last.Percent < 99.999 {
		t.Fatalf("final coverage %.2f%%, want 100%%", last.Percent)
	}
	if reached90 == -1 || reached90 > ninetyPctBound {
		t.Fatalf("90%% coverage reached at bound %d, want <= %d", reached90, ninetyPctBound)
	}
}

func TestFig4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweeps take ~40s")
	}
	t.Parallel() // see ablate_test.go
	data, err := Fig4Data(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 4 {
		t.Fatalf("programs = %d, want 4", len(data))
	}
	for _, s := range data {
		t.Run(s.Name, func(t *testing.T) {
			// Paper: >90% of the state space covered within 8 preemptions
			// for every completely-searchable program.
			assertCoverageShape(t, s.Points, 10)
		})
	}
}

func TestFig2ICBBeatsDepthBounding(t *testing.T) {
	cfg := Config{Budget: 400}
	ss := Fig2Data(cfg)
	byName := map[string]int{}
	for _, s := range ss {
		byName[s.name] = finalStates(s)
	}
	if byName["icb"] <= byName["dfs"] {
		t.Errorf("icb (%d) does not beat dfs (%d)", byName["icb"], byName["dfs"])
	}
	if byName["icb"] <= byName["db:40"] || byName["icb"] <= byName["db:20"] {
		t.Errorf("icb (%d) does not beat depth bounding (db:40=%d, db:20=%d)",
			byName["icb"], byName["db:40"], byName["db:20"])
	}
	if byName["db:40"] < byName["db:20"] {
		t.Errorf("deeper bound covers less: db:40=%d < db:20=%d", byName["db:40"], byName["db:20"])
	}
}

func TestFig5And6ICBDominates(t *testing.T) {
	cfg := Config{Budget: 300}
	for name, data := range map[string][]series{"fig5": Fig5Data(cfg), "fig6": Fig6Data(cfg)} {
		icb := finalStates(data[0])
		for _, s := range data[1:] {
			if icb <= finalStates(s) {
				t.Errorf("%s: icb (%d) does not dominate %s (%d)", name, icb, s.name, finalStates(s))
			}
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := Run("nope", io.Discard, Config{}); err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("err = %v", err)
	}
}

func TestRenderDoesNotCrash(t *testing.T) {
	cfg := Config{Budget: 100}
	for _, name := range []string{"table2", "fig2", "fig5", "fig6"} {
		if err := Run(name, io.Discard, cfg); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates every experiment (~2 min)")
	}
	t.Parallel() // see ablate_test.go
	dir := t.TempDir()
	if err := WriteCSV(dir, Config{Budget: 200}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"table1.csv", "table2.csv", "fig1.csv", "fig2.csv", "fig4.csv", "fig5.csv", "fig6.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lines := strings.Count(string(data), "\n")
		if lines < 2 {
			t.Fatalf("%s has only %d lines", name, lines)
		}
	}
}

func TestSeriesRowsShape(t *testing.T) {
	data := []series{
		{name: "a", curve: []core.CoveragePoint{{Executions: 10, States: 5}, {Executions: 20, States: 9}}},
		{name: "b", curve: []core.CoveragePoint{{Executions: 10, States: 3}}},
	}
	rows := seriesRows(data)
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	if rows[0][1] != "a" || rows[0][2] != "b" {
		t.Fatalf("header: %v", rows[0])
	}
	// Short series carry their last value forward.
	if rows[2][2] != "3" {
		t.Fatalf("carried value: %v", rows[2])
	}
}
