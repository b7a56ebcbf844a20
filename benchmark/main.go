// Command benchmark is the repository's benchmark: it measures the ICB
// checker end to end on fixed workloads, checks every verdict it delivers,
// and in a separate traced run measures the layers a search passes through.
//
// Run it through run.sh, which builds it from the checkout's sources:
//
//	bash benchmark/run.sh --workload first-bug --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh compare OLD NEW
//
// Without --workload every workload runs, one after another. The process
// generates each workload's inputs from the seed, then measures them in a
// fresh child process with GOMAXPROCS=2 that receives only those inputs,
// checks the child's verdicts against references that never come from the
// checker itself, and prints every metric with its unit, sample count and
// quartiles. The last line of standard output is the result as one JSON
// object. The exit code is 0 when every verdict was right, 1 when one was
// wrong, and 2 when the benchmark could not run.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"syscall"
	"time"
)

// childTimeout bounds one child process, comfortably inside the three
// minutes a run may take.
const childTimeout = 170 * time.Second

func main() {
	if os.Getenv(childEnv) == "1" {
		os.Exit(childMain(os.Stdin, os.Stdout))
	}
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(parentMain(os.Args[1:], os.Stdout))
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	// small runs a reduced population (the smoke test's).
	small bool
	// out receives results.json and the traced runs' trace files.
	out string
}

func parentMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (default: every workload, one after another)")
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", 25, "seconds one run measures")
	trace := fs.Int("trace", 0, "1: the traced run, which reports the per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "results"), "directory receiving results.json and trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out DIR]")
		return 2
	}
	selected := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		selected = []workload{w}
	}
	rc := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out}
	return runAll(context.Background(), stdout, selected, rc, defaultRefs())
}

// runAll runs the selected workloads one after another, checking their
// verdicts against refs, and returns the process exit code.
func runAll(ctx context.Context, stdout io.Writer, selected []workload, rc runConfig, refs references) int {
	code := 0
	for _, w := range selected {
		rec, spans, err := runWorkload(ctx, w, rc, refs)
		if err == nil {
			err = save(rc.out, rec, spans)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			return 2
		}
		report(stdout, rec)
		if !rec.Correct {
			code = 1
		}
	}
	return code
}

// runRecord is one run's result as results.json keeps it.
type runRecord struct {
	Workload  string    `json:"workload"`
	Seed      int64     `json:"seed"`
	Trace     bool      `json:"trace"`
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	FailFrac  float64   `json:"fail_frac"`
	Failures  []string  `json:"failures,omitempty"`
	Metrics   metricSet `json:"metrics"`
}

// maxFailures caps the wrong verdicts a record lists by name.
const maxFailures = 10

// runWorkload generates w's inputs, measures them in a child process and
// checks every verdict the child reports against refs.
func runWorkload(ctx context.Context, w workload, rc runConfig, refs references) (runRecord, []span, error) {
	progs, oracle, err := w.inputs(rc.seed, rc.small)
	if err != nil {
		return runRecord{}, nil, err
	}
	refs.oracle = oracle
	in := input{Workload: w.name, Seed: rc.seed, Seconds: rc.seconds, Trace: rc.trace, Programs: progs}
	out, maxRSSKB, err := spawn(ctx, in)
	if err != nil {
		return runRecord{}, nil, err
	}
	rec := runRecord{Workload: w.name, Seed: rc.seed, Trace: rc.trace, Metrics: out.Metrics}
	for _, g := range out.Groups {
		for _, r := range g.Records {
			if r.Prog < 0 || r.Prog >= len(progs) {
				return runRecord{}, nil, fmt.Errorf("child reported unknown program %d", r.Prog)
			}
			rec.Attempted++
			if why := refs.check(progs[r.Prog], g.Config, r); why != "" {
				rec.Failed++
				if len(rec.Failures) < maxFailures {
					rec.Failures = append(rec.Failures, why)
				}
			}
		}
	}
	if rec.Attempted == 0 {
		return runRecord{}, nil, errors.New("child reported no searches")
	}
	rec.Correct = rec.Failed == 0
	rec.FailFrac = float64(rec.Failed) / float64(rec.Attempted)
	if !rc.trace {
		rec.Metrics.value("peak_rss_mb", float64(maxRSSKB)/1024)
	}
	return rec, out.Spans, nil
}

// spawn runs the child on in and returns its output and peak resident set
// size in KiB.
func spawn(ctx context.Context, in input) (childOutput, int64, error) {
	raw, err := json.Marshal(in)
	if err != nil {
		return childOutput{}, 0, fmt.Errorf("encoding inputs: %w", err)
	}
	exe, err := os.Executable()
	if err != nil {
		return childOutput{}, 0, fmt.Errorf("locating the benchmark executable: %w", err)
	}
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), childEnv+"=1", "GOMAXPROCS=2")
	cmd.Stdin = bytes.NewReader(raw)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return childOutput{}, 0, fmt.Errorf("child process: %w", err)
	}
	var out childOutput
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		return childOutput{}, 0, fmt.Errorf("decoding child output: %w", err)
	}
	var maxRSS int64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		maxRSS = ru.Maxrss
	}
	return out, maxRSS, nil
}

// resultsFile is the layout of results.json: every run made with the same
// --out directory, in the order they ran.
type resultsFile struct {
	Runs []runRecord `json:"runs"`
}

// save appends rec to dir/results.json and writes a traced run's spans,
// with each layer's self time, to dir/trace-<workload>-<seed>.json.
func save(dir string, rec runRecord, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "results.json")
	var rf resultsFile
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &rf); err != nil {
			return fmt.Errorf("reading %s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	rf.Runs = append(rf.Runs, rec)
	if err := writeJSON(path, rf); err != nil {
		return err
	}
	if !rec.Trace {
		return nil
	}
	return writeJSON(filepath.Join(dir, fmt.Sprintf("trace-%s-%d.json", rec.Workload, rec.Seed)), struct {
		Workload string           `json:"workload"`
		Seed     int64            `json:"seed"`
		SelfNS   map[string]int64 `json:"self_ns"`
		Spans    []span           `json:"spans"`
	}{rec.Workload, rec.Seed, selfTimes(spans), spans})
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding %s: %w", path, err)
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// report prints rec for a reader, then as the one-line JSON result.
func report(w io.Writer, rec runRecord) {
	mode := "end to end"
	if rec.Trace {
		mode = "traced, per layer"
	}
	fmt.Fprintf(w, "workload %s, seed %d, %s: %d searches, %d wrong verdicts\n",
		rec.Workload, rec.Seed, mode, rec.Attempted, rec.Failed)
	for _, f := range rec.Failures {
		fmt.Fprintf(w, "  wrong: %s\n", f)
	}
	fmt.Fprintf(w, "  %-30s %-6s %6s %14s %14s %14s\n", "metric", "unit", "n", "q1", "median", "q3")
	for _, n := range slices.Sorted(maps.Keys(rec.Metrics)) {
		s := rec.Metrics[n]
		if s.N == 0 {
			fmt.Fprintf(w, "  %-30s %-6s %6s %14s %14.6g\n", n, s.Unit, "", "", s.Value)
			continue
		}
		fmt.Fprintf(w, "  %-30s %-6s %6d %14.6g %14.6g %14.6g", n, s.Unit, s.N, s.Q1, s.Value, s.Q3)
		if s.TailPermille > 0 {
			fmt.Fprintf(w, "   p%g %.6g", float64(s.TailPermille)/10, s.Tail)
		}
		fmt.Fprintln(w)
	}
	type lineMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]lineMetric `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, make(map[string]lineMetric, len(rec.Metrics))}
	for n, s := range rec.Metrics {
		line.Metrics[n] = lineMetric{s.Value, s.Unit}
	}
	raw, _ := json.Marshal(line) // cannot fail: every value is finite, or the child could not have sent it
	fmt.Fprintln(w, string(raw))
}
