package exper

// Tests of the reduction on the seeded benchmarks: the Theorem-1 pin
// asserts the reduction never costs a first sighting anything, and
// BenchmarkBPOR times plain against reduced sweeps.

import (
	"testing"

	"icb/internal/core"
	"icb/internal/progs"
)

// TestBPORPinsFirstSightings pins the reduction against Theorem 1 on
// every seeded benchmark bug: BPOR bounded to the bug's documented
// minimal preemption count finds the identical first bug (same kind,
// same message, sighted at exactly the minimal count, at the execution
// firstSightings pins) with no more executions than the unreduced search
// needs.
func TestBPORPinsFirstSightings(t *testing.T) {
	cfg := Config{}
	for _, b := range Benchmarks() {
		for i := range b.Bugs {
			bug := b.Bugs[i]
			t.Run(b.Name+"/"+bug.ID, func(t *testing.T) {
				opt := core.Options{MaxPreemptions: bug.Bound, StopOnFirstBug: true}
				plain := explore(bug.Program, core.ICB{}, opt, cfg)
				opt.BPOR = true
				red := explore(bug.Program, core.ICB{}, opt, cfg)
				pfb, rfb := plain.FirstBug(), red.FirstBug()
				if pfb == nil {
					t.Fatalf("plain ICB at bound %d finds nothing", bug.Bound)
				}
				if rfb == nil {
					t.Fatalf("reduction at bound %d loses the bug plain ICB finds at execution %d",
						bug.Bound, pfb.Execution)
				}
				if rfb.Kind != pfb.Kind || rfb.Message != pfb.Message {
					t.Errorf("reduction changed the first bug: %v, plain found %v", rfb, pfb)
				}
				if rfb.Preemptions != bug.Bound {
					t.Errorf("reduction sighted the bug at %d preemptions, documented minimum is %d",
						rfb.Preemptions, bug.Bound)
				}
				if red.Executions > plain.Executions {
					t.Errorf("reduction needed %d executions to the sighting, plain needed %d",
						red.Executions, plain.Executions)
				}
				if want := firstSightings[b.Name+"/"+bug.ID]; rfb.Execution != want.bpor {
					t.Errorf("reduction sighted the bug at execution %d, pinned %d", rfb.Execution, want.bpor)
				}
			})
		}
	}
}

// BenchmarkBPOR times plain and reduced sweeps on the work-stealing
// queue (fine-grained atomics) and Bluetooth (lock-heavy): a full bound-2
// uncached sweep per iteration, with and without the reduction. The
// on/off ratio of ns/op is the reduction's raw-speed win on that shape;
// the repository benchmark's traced drain run reports the same ratio
// over all five programs as bpor.wall_ratio.
func BenchmarkBPOR(b *testing.B) {
	for _, name := range []string{"Work Stealing Queue", "Bluetooth"} {
		var bench *progs.Benchmark
		for _, cand := range Benchmarks() {
			if cand.Name == name {
				bench = cand
			}
		}
		if bench == nil {
			b.Fatalf("benchmark %q not seeded", name)
		}
		for _, bpor := range []bool{false, true} {
			label := "/plain"
			if bpor {
				label = "/bpor"
			}
			b.Run(bench.Name+label, func(b *testing.B) {
				var execs int
				for i := 0; i < b.N; i++ {
					res := explore(bench.Correct, core.ICB{}, core.Options{
						MaxPreemptions: 2,
						MaxExecutions:  40000,
						BPOR:           bpor,
					}, Config{})
					execs = res.Executions
				}
				b.ReportMetric(float64(execs), "execs/sweep")
			})
		}
	}
}
