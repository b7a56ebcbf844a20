package main

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"

	"icb/internal/core"
	"icb/internal/fuzz"
	"icb/internal/progs"
	"icb/internal/progs/ape"
	"icb/internal/progs/bluetooth"
	"icb/internal/progs/dryad"
	"icb/internal/progs/fsmodel"
	"icb/internal/progs/wsq"
	"icb/internal/sched"
)

// suites are the paper's five stateless benchmarks in Table 1 order, keyed
// by their package names, with the bounds the drain, drain-bpor and
// coverage workloads complete on their correct versions. Dryad's space is
// the largest by far. Uncached, bound 2 is out of reach, so it drains to
// bound 1. With the partial-order reduction on, its bound-1 drain takes
// about 4 s, four fifths of a pass, which would leave a run four or five
// passes, and medians over so few move by a quarter from run to run on a
// host whose speed drifts. So drain-bpor takes it to bound 0 (70 ms); its
// reduced bound-1 drain is measured in the traced run of drain, which flips
// the reduction on for one pass. Cached on two workers, bound 3 takes four
// seconds, which would likewise leave a run only a few passes to take
// medians over, so it is covered to bound 2.
var suites = []struct {
	key                               string
	bench                             func() *progs.Benchmark
	drainBound, bporBound, coverBound int
}{
	{"bluetooth", bluetooth.Benchmark, 2, 2, 3},
	{"fsmodel", fsmodel.Benchmark, 2, 2, 3},
	{"wsq", wsq.Benchmark, 2, 2, 3},
	{"ape", ape.Benchmark, 2, 2, 3},
	{"dryad", dryad.Benchmark, 1, 0, 2},
}

// smallSuites are the suites a reduced population keeps: those whose
// searches, in every workload, take a few milliseconds.
var smallSuites = map[string]bool{"wsq": true, "ape": true}

const (
	// generated is the number of generated buggy programs in the first-bug
	// workload; smallGenerated is that number in a reduced population.
	generated      = 48
	smallGenerated = 4
	// oracleLimit caps the brute-force enumeration that admits a generated
	// program: larger schedule spaces are skipped, not judged.
	oracleLimit = 500
)

// searchConfig is the part of a search's configuration a workload fixes;
// the bound comes with each program. Every search checks for data races,
// the soundness condition of the sync-only reduction.
type searchConfig struct {
	// Workers is 1 for the sequential ICB search, more for ParallelICB.
	Workers        int  `json:"workers"`
	BPOR           bool `json:"bpor,omitempty"`
	StateCache     bool `json:"state_cache,omitempty"`
	StopOnFirstBug bool `json:"stop_on_first_bug,omitempty"`
}

func (c searchConfig) strategy() core.Strategy {
	if c.Workers > 1 {
		return core.ParallelICB{Workers: c.Workers}
	}
	return core.ICB{}
}

func (c searchConfig) options(bound int) core.Options {
	return core.Options{
		MaxPreemptions: bound,
		CheckRaces:     true,
		BPOR:           c.BPOR,
		StateCache:     c.StateCache,
		StopOnFirstBug: c.StopOnFirstBug,
	}
}

// programSet selects a workload's programs.
type programSet int

const (
	// bugVariants is every seeded Table-2 bug variant plus generated buggy
	// programs, each searched without a bound.
	bugVariants programSet = iota
	// drains is the correct version of every suite at its drainBound.
	drains
	// bporDrains is the correct version of every suite at its bporBound.
	bporDrains
	// coverage is the correct version of every suite at its coverBound.
	coverage
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name     string
	why      string
	config   searchConfig
	programs programSet
}

// workloads are the benchmark's workloads; BENCHMARK.json lists the same
// names and README.md says why each was chosen.
var workloads = []workload{
	{
		name:     "first-bug",
		why:      "the paper's headline use: unbounded searches to the first bug of all 14 Table-2 variants and 48 oracle-judged generated programs",
		config:   searchConfig{Workers: 1, StopOnFirstBug: true},
		programs: bugVariants,
	},
	{
		name:     "drain",
		why:      "pure replay throughput: exhaust bound 2 (Dryad 1) of the five correct benchmarks, sequential and uncached, exact Theorem-1 counts",
		config:   searchConfig{Workers: 1},
		programs: drains,
	},
	{
		name:     "drain-bpor",
		why:      "drain with bounded partial-order reduction on, Dryad to bound 0 (bound 1 takes 4 s under it): exercises the one layer drain bypasses",
		config:   searchConfig{Workers: 1, BPOR: true},
		programs: bporDrains,
	},
	{
		name:     "coverage-par",
		why:      "bound-3 (Dryad 2) coverage on 2 workers with the state cache: stealing, the sharded state set, ~6 table probes per execution",
		config:   searchConfig{Workers: 2, StateCache: true},
		programs: coverage,
	},
}

// findWorkload returns the workload named name.
func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// inProgram is one program of a workload as the child receives it: a suite
// program by name, or a generated program as its spec text, with the bound
// it is searched to (-1: unbounded).
type inProgram struct {
	Name  string `json:"name"`
	Bound int    `json:"bound"`
	Spec  string `json:"spec,omitempty"`
}

// inputs generates a workload's programs from seed, and the oracle's ground
// truth for each generated one. small reduces the population to the
// programs whose searches take milliseconds.
func (w workload) inputs(seed int64, small bool) ([]inProgram, map[string]*fuzz.Truth, error) {
	var out []inProgram
	for _, s := range suites {
		if small && !smallSuites[s.key] {
			continue
		}
		switch w.programs {
		case drains:
			out = append(out, inProgram{Name: s.key, Bound: s.drainBound})
		case bporDrains:
			out = append(out, inProgram{Name: s.key, Bound: s.bporBound})
		case coverage:
			out = append(out, inProgram{Name: s.key, Bound: s.coverBound})
		default:
			for _, bug := range s.bench().Bugs {
				out = append(out, inProgram{Name: s.key + "/" + bug.ID, Bound: -1})
			}
		}
	}
	if w.programs != bugVariants {
		return out, nil, nil
	}
	n := generated
	if small {
		n = smallGenerated
	}
	specs, truths, err := population(seed, n)
	if err != nil {
		return nil, nil, err
	}
	oracle := make(map[string]*fuzz.Truth, n)
	for i, spec := range specs {
		text, err := spec.MarshalText()
		if err != nil {
			return nil, nil, fmt.Errorf("encoding generated seed %d: %w", spec.Seed, err)
		}
		name := fmt.Sprintf("gen/%d", spec.Seed)
		out = append(out, inProgram{Name: name, Bound: -1, Spec: string(text)})
		oracle[name] = truths[i]
	}
	return out, oracle, nil
}

// population draws n buggy generated programs from seed. Candidates come
// from fuzz.Generate on a seed-derived stream of generator seeds; one is
// admitted when the brute-force oracle enumerates its whole schedule space
// within oracleLimit executions, finds at least one bug, and both race
// detectors agree. The oracle runs on two goroutines, one per CPU of the
// host the benchmark is sized for; admission follows candidate order, so
// the result depends on seed alone.
func population(seed int64, n int) ([]*fuzz.Spec, []*fuzz.Truth, error) {
	const batch = 16
	rng := rand.New(rand.NewSource(seed))
	var specs []*fuzz.Spec
	var truths []*fuzz.Truth
	for len(specs) < n {
		cands := make([]*fuzz.Spec, batch)
		for i := range cands {
			cands[i] = fuzz.Generate(rng.Int63())
		}
		got := make([]*fuzz.Truth, batch)
		errs := make([]error, batch)
		var next atomic.Int64
		var wg sync.WaitGroup
		for range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1)) - 1; i < batch; i = int(next.Add(1)) - 1 {
					got[i], errs[i] = fuzz.ComputeTruth(cands[i], fuzz.Limits{MaxExecutions: oracleLimit})
				}
			}()
		}
		wg.Wait()
		for i, spec := range cands {
			if len(specs) == n || errors.Is(errs[i], fuzz.ErrTooBig) {
				continue
			}
			if errs[i] != nil {
				return nil, nil, fmt.Errorf("oracle on generated seed %d: %w", spec.Seed, errs[i])
			}
			if len(got[i].Bugs) > 0 && len(got[i].DetectorDisagreements) == 0 {
				specs = append(specs, spec)
				truths = append(truths, got[i])
			}
		}
	}
	return specs, truths, nil
}

// materialize builds the runnable program of p.
func materialize(p inProgram) (sched.Program, error) {
	if p.Spec != "" {
		spec, err := fuzz.ParseSpec([]byte(p.Spec))
		if err != nil {
			return nil, fmt.Errorf("program %q: %w", p.Name, err)
		}
		return spec.Program(nil), nil
	}
	key, variant, isBug := strings.Cut(p.Name, "/")
	for _, s := range suites {
		if s.key != key {
			continue
		}
		b := s.bench()
		if !isBug {
			return b.Correct, nil
		}
		if bug := b.FindBug(variant); bug != nil {
			return bug.Program, nil
		}
	}
	return nil, fmt.Errorf("unknown program %q", p.Name)
}
