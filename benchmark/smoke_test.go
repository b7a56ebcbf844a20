package main

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestMain lets the test binary serve as the benchmark's child process, as
// the benchmark binary does.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(childMain(os.Stdin, os.Stdout))
	}
	os.Exit(m.Run())
}

// TestSmoke makes one short run of every workload on the reduced
// population, end to end and traced: every verdict must be right, each run
// must emit exactly its declared metrics, and the traced run must write a
// trace file whose self times are all non-negative.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rc := runConfig{seed: 1, seconds: 0.01, trace: traced, small: true, out: dir}
			rec, spans, err := runWorkload(context.Background(), w, rc, defaultRefs())
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.name, traced, err)
			}
			if !rec.Correct {
				t.Errorf("%s (traced %v): wrong verdicts: %v", w.name, traced, rec.Failures)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if got, decl := slices.Sorted(maps.Keys(rec.Metrics)), defNames(want); !slices.Equal(got, decl) {
				t.Errorf("%s (traced %v): emitted %v, declared %v", w.name, traced, got, decl)
			}
			for n, s := range rec.Metrics {
				if math.IsNaN(s.Value) || math.IsInf(s.Value, 0) || s.Unit != unitOf(n) {
					t.Errorf("%s: metric %s = %+v", w.name, n, s)
				}
			}
			if err := save(dir, rec, spans); err != nil {
				t.Fatal(err)
			}
			if !traced {
				continue
			}
			raw, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("trace-%s-1.json", w.name)))
			if err != nil {
				t.Fatal(err)
			}
			var tf struct {
				SelfNS map[string]int64 `json:"self_ns"`
				Spans  []span           `json:"spans"`
			}
			if err := json.Unmarshal(raw, &tf); err != nil {
				t.Fatal(err)
			}
			for _, layer := range []string{"workload", "pass", "search", "replay", "fingerprint", "race", "stateset", "sharded", "cache"} {
				if _, ok := tf.SelfNS[layer]; !ok {
					t.Errorf("%s: trace has no %q spans", w.name, layer)
				}
			}
			for name, ns := range tf.SelfNS {
				if ns < 0 {
					t.Errorf("%s: negative self time %d ns for %q", w.name, ns, name)
				}
			}
		}
	}
}

func defNames(defs []metricDef) []string {
	var names []string
	for _, d := range defs {
		names = append(names, d.name)
	}
	slices.Sort(names)
	return names
}
