package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// benchSpec is the part of BENCHMARK.json compare reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readSpec(path string) (benchSpec, error) {
	var spec benchSpec
	raw, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return spec, fmt.Errorf("reading %s: %w", path, err)
	}
	return spec, nil
}

// readRuns loads the untraced runs of a results.json, given the file or
// the directory holding it, grouped by workload.
func readRuns(path string) (map[string][]runRecord, error) {
	if st, err := os.Stat(path); err == nil && st.IsDir() {
		path = filepath.Join(path, "results.json")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultsFile
	if err := json.Unmarshal(raw, &rf); err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	runs := make(map[string][]runRecord)
	for _, r := range rf.Runs {
		if !r.Trace {
			runs[r.Workload] = append(runs[r.Workload], r)
		}
	}
	return runs, nil
}

// compareMain implements `compare OLD NEW`: for every workload both sides
// ran, it judges each end-to-end metric by its BENCHMARK.json bound and
// prints one row per workload. The exit code is 1 on a regression or on a
// rise in the share of wrong verdicts, and 2 when the inputs are unusable.
func compareMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark declaration holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare [--spec BENCHMARK.json] OLD NEW (results.json files or directories holding one)")
		return 2
	}
	spec, err := readSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 2
	}
	old, err := readRuns(fs.Arg(0))
	if err == nil {
		var cur map[string][]runRecord
		if cur, err = readRuns(fs.Arg(1)); err == nil {
			return compareRuns(stdout, spec, old, cur)
		}
	}
	fmt.Fprintln(os.Stderr, "benchmark compare:", err)
	return 2
}

// verdict names what a comparison found for one metric.
const (
	verdictOK         = "ok"
	verdictBetter     = "better"
	verdictRegressed  = "REGRESSED"
	verdictUnresolved = "unresolved"
	verdictMissing    = "MISSING"
)

// judge compares one metric's values over the old and the new runs and
// returns the median's relative change with the verdict on it. A metric
// whose run-to-run spread (quartile distance over median, on either side)
// is wider than its bound is unresolved, unless every new run reads better
// than every old one; otherwise its median moving by more than the bound
// makes it better or regressed.
func judge(oldVals, newVals []float64, better string, bound float64) (change float64, verdict string) {
	om, nm := median(oldVals), median(newVals)
	change = (nm - om) / om
	worse := change
	isBetter := func(n, o float64) bool { return n < o }
	if better == "higher" {
		worse = -change
		isBetter = func(n, o float64) bool { return n > o }
	}
	allBetter := true
	for _, o := range oldVals {
		for _, n := range newVals {
			allBetter = allBetter && isBetter(n, o)
		}
	}
	noisy := max(spread(oldVals), spread(newVals)) > bound
	switch {
	case noisy && allBetter, !noisy && -worse > bound:
		return change, verdictBetter
	case noisy:
		return change, verdictUnresolved
	case worse > bound:
		return change, verdictRegressed
	}
	return change, verdictOK
}

// spread is the quartile distance of xs as a share of their median; zero
// for fewer than two values.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, m, q3 := quartiles(xs)
	return (q3 - q1) / m
}

func compareRuns(w io.Writer, spec benchSpec, old, cur map[string][]runRecord) int {
	code := 0
	for _, wl := range workloads {
		o, n := old[wl.name], cur[wl.name]
		if len(o) == 0 || len(n) == 0 {
			continue
		}
		cells := []string{fmt.Sprintf("%-13s", wl.name)}
		for _, m := range spec.EndToEnd {
			ov, nv := values(o, m.Name), values(n, m.Name)
			if len(ov) < len(o) || len(nv) < len(n) {
				cells = append(cells, m.Name+" "+verdictMissing)
				code = 1
				continue
			}
			change, v := judge(ov, nv, m.Better, m.Bound)
			if v == verdictRegressed {
				code = 1
			}
			cells = append(cells, fmt.Sprintf("%s %+.1f%% %s", m.Name, 100*change, v))
		}
		of, nf := failFrac(o), failFrac(n)
		cell := fmt.Sprintf("fail_frac %.4g->%.4g", of, nf)
		if nf > of {
			cell += " " + verdictRegressed
			code = 1
		}
		cells = append(cells, cell)
		fmt.Fprintln(w, strings.Join(cells, " | "))
	}
	return code
}

// values collects metric name over runs, skipping runs that lack it.
func values(runs []runRecord, name string) []float64 {
	var vs []float64
	for _, r := range runs {
		if s, ok := r.Metrics[name]; ok {
			vs = append(vs, s.Value)
		}
	}
	return vs
}

// failFrac is the share of wrong verdicts over runs.
func failFrac(runs []runRecord) float64 {
	var failed, attempted int
	for _, r := range runs {
		failed, attempted = failed+r.Failed, attempted+r.Attempted
	}
	return ratio(float64(failed), float64(attempted))
}
