package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

func TestCompareFixtures(t *testing.T) {
	for _, c := range []struct {
		new  string
		code int
		want []string
	}{
		{"same", 0, []string{"execs_per_s +0.0% ok", "setup_s", "peak_rss_mb", "fail_frac 0->0 |"}},
		{"regressed", 1, []string{"execs_per_s -30.0% REGRESSED", "verdict_geo_ms +0.0% ok"}},
		{"noisy", 0, []string{"verdict_geo_ms +0.0% unresolved", "execs_per_s +0.0% ok"}},
		{"failed", 1, []string{"fail_frac 0->0.006061 REGRESSED"}},
	} {
		var out bytes.Buffer
		code := compareMain([]string{"--spec", "../BENCHMARK.json", "testdata/compare/old", "testdata/compare/" + c.new + "/results.json"}, &out)
		if code != c.code {
			t.Errorf("%s: exit code %d, want %d\n%s", c.new, code, c.code, out.String())
		}
		row := out.String()
		if strings.Count(row, "\n") != 1 || !strings.HasPrefix(row, "drain ") {
			t.Errorf("%s: want one row, for drain; got\n%s", c.new, row)
		}
		for _, w := range c.want {
			if !strings.Contains(strings.TrimSpace(row)+" |", w) {
				t.Errorf("%s: row lacks %q:\n%s", c.new, w, row)
			}
		}
	}
}

func TestJudge(t *testing.T) {
	for _, c := range []struct {
		name     string
		old, new []float64
		better   string
		want     string
	}{
		{"within the bound", []float64{100, 101, 99}, []float64{105, 104, 106}, "lower", verdictOK},
		{"worse than the bound", []float64{100, 101, 99}, []float64{115, 114, 116}, "lower", verdictRegressed},
		{"higher is better", []float64{100, 101, 99}, []float64{85, 86, 84}, "higher", verdictRegressed},
		{"better beyond the bound", []float64{100, 101, 99}, []float64{80, 81, 79}, "lower", verdictBetter},
		{"spread wider than the bound", []float64{80, 100, 130}, []float64{115, 114, 116}, "lower", verdictUnresolved},
		{"noisy but every new run better", []float64{80, 100, 130}, []float64{70, 71, 72}, "lower", verdictBetter},
		{"ties are not better", []float64{80, 100, 130}, []float64{80, 80, 80}, "lower", verdictUnresolved},
		{"single runs", []float64{100}, []float64{111}, "lower", verdictRegressed},
	} {
		if _, got := judge(c.old, c.new, c.better, 0.10); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
}

// TestDeclaredMetrics checks BENCHMARK.json against the code: the same
// workloads, and the same metric names, units and directions as the code
// declares (TestSmoke checks that runs emit exactly these).
func TestDeclaredMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Errorf("BENCHMARK.json workloads %v, code %v", names, want)
	}

	validName := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	var got []metricDef
	var setupBound, maxBound float64
	for _, m := range decl.EndToEnd {
		got = append(got, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside [0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
		maxBound = max(maxBound, m.Bound)
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s bound %v, want present and the largest (%v)", setupBound, maxBound)
	}
	for _, m := range decl.PerLayer {
		got = append(got, metricDef{m.Name, m.Unit, m.Better})
	}
	declared := append(append([]metricDef(nil), endToEnd...), perLayer...)
	if len(got) != len(declared) {
		t.Fatalf("BENCHMARK.json declares %d metrics, the code %d", len(got), len(declared))
	}
	for i := range got {
		if got[i] != declared[i] {
			t.Errorf("BENCHMARK.json declares %v, the code %v", got[i], declared[i])
		}
		if !validName.MatchString(got[i].name) {
			t.Errorf("invalid metric name %q", got[i].name)
		}
	}
}
