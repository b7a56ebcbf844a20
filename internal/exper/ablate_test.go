package exper

// The package's long tests run in parallel once the quick sequential ones
// are done, so that go test's default -parallel (GOMAXPROCS) keeps every
// CPU busy. TestAblations runs the longest single search among them (its
// uncached exhaustive sweep of the reduced queue is about three million
// executions), so it lives in the first test file: go test resumes the
// first test that paused in t.Parallel first, and starting the longest
// one first keeps the package's wall time close to its own.
// TestFig1ShapeFull stays sequential, which keeps the package on one CPU
// for its first minute or so while go test runs other packages beside it.

import "testing"

func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("the csb sweep takes minutes")
	}
	t.Parallel()
	r, err := AblationData(Config{})
	if err != nil {
		t.Fatal(err)
	}
	// 1. Preemption bounding beats pure context-switch bounding by a wide
	// margin on the Figure 3 bug.
	if r.CSBBugBound <= r.ICBBugBound {
		t.Errorf("csb bound %d not worse than icb bound %d", r.CSBBugBound, r.ICBBugBound)
	}
	if r.CSBBugExecs < 10*r.ICBBugExecs {
		t.Errorf("csb executions %d not an order of magnitude above icb's %d", r.CSBBugExecs, r.ICBBugExecs)
	}
	// 2. The sync-only reduction explores fewer executions without losing
	// meaningful coverage.
	if r.SyncOnlyExecs >= r.EveryAccessExecs {
		t.Errorf("sync-only %d executions not fewer than every-access %d", r.SyncOnlyExecs, r.EveryAccessExecs)
	}
	// 3. The work-item table prunes by orders of magnitude at equal state
	// coverage.
	if r.CachedExecs*10 > r.UncachedExecs {
		t.Errorf("cache pruning weak: %d vs %d", r.CachedExecs, r.UncachedExecs)
	}
}
