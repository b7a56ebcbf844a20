package core

import (
	"sync"
	"testing"

	"icb/internal/sched"
)

func mkSched(n int) sched.Schedule {
	s := make(sched.Schedule, 1)
	s[0] = sched.Decision{Kind: sched.DecisionData, Data: n}
	return s
}

func schedID(s sched.Schedule) int { return s[0].Data }

func TestWSDequeOwnerLIFO(t *testing.T) {
	d := &wsDeque{}
	if _, ok := d.pop(); ok {
		t.Fatal("pop on empty deque succeeded")
	}
	for i := 0; i < 10; i++ {
		d.push(mkSched(i))
	}
	if got := d.size(); got != 10 {
		t.Fatalf("size = %d, want 10", got)
	}
	for i := 9; i >= 0; i-- {
		s, ok := d.pop()
		if !ok || schedID(s) != i {
			t.Fatalf("pop = (%v, %v), want id %d", s, ok, i)
		}
	}
	if _, ok := d.pop(); ok {
		t.Fatal("pop after drain succeeded")
	}
}

func TestWSDequeStealFIFO(t *testing.T) {
	d := &wsDeque{}
	for i := 0; i < 5; i++ {
		d.push(mkSched(i))
	}
	for i := 0; i < 5; i++ {
		s, ok := d.steal()
		if !ok || schedID(s) != i {
			t.Fatalf("steal = (%v, %v), want id %d", s, ok, i)
		}
	}
	if _, ok := d.steal(); ok {
		t.Fatal("steal after drain succeeded")
	}
}

func TestWSDequeGrowth(t *testing.T) {
	d := &wsDeque{}
	const n = wsDequeInitialSize * 4
	for i := 0; i < n; i++ {
		d.push(mkSched(i))
	}
	snap := d.snapshotQuiesced()
	if len(snap) != n {
		t.Fatalf("snapshot len = %d, want %d", len(snap), n)
	}
	for i, s := range snap {
		if schedID(s) != i {
			t.Fatalf("snapshot[%d] = id %d", i, schedID(s))
		}
	}
	// Mixed drain: half stolen from the top, half popped from the bottom.
	for i := 0; i < n/2; i++ {
		s, ok := d.steal()
		if !ok || schedID(s) != i {
			t.Fatalf("steal %d failed", i)
		}
	}
	for i := n - 1; i >= n/2; i-- {
		s, ok := d.pop()
		if !ok || schedID(s) != i {
			t.Fatalf("pop %d failed", i)
		}
	}
}

// TestWSDequeReverse: reversing a quiesced deque makes the owner pop its
// oldest item first, across a wrapped buffer and at every length parity.
func TestWSDequeReverse(t *testing.T) {
	for _, n := range []int{0, 1, 2, 5, wsDequeInitialSize + 3} {
		d := &wsDeque{}
		// Move top near the buffer's end, so the live window wraps.
		for i := 0; i < wsDequeInitialSize-2; i++ {
			d.push(mkSched(-1))
			d.steal()
		}
		for i := 0; i < n; i++ {
			d.push(mkSched(i))
		}
		d.reverseQuiesced()
		for i := 0; i < n; i++ {
			if s, ok := d.pop(); !ok || schedID(s) != i {
				t.Fatalf("n=%d: pop %d = (%v, %v), want id %d", n, i, s, ok, i)
			}
		}
		if _, ok := d.pop(); ok {
			t.Fatalf("n=%d: pop after drain succeeded", n)
		}
	}
}

// TestWSDequeConcurrentSteal hammers one owner against several thieves and
// checks that every pushed item is consumed exactly once. Run with -race.
func TestWSDequeConcurrentSteal(t *testing.T) {
	const (
		thieves = 4
		items   = 4000
	)
	d := &wsDeque{}
	var mu sync.Mutex
	seen := make(map[int]int, items)
	record := func(batch []int) {
		mu.Lock()
		for _, id := range batch {
			seen[id]++
		}
		mu.Unlock()
	}

	var done sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < thieves; i++ {
		done.Add(1)
		go func() {
			defer done.Done()
			var got []int
			for {
				if s, ok := d.steal(); ok {
					got = append(got, schedID(s))
					continue
				}
				select {
				case <-stop:
					// Final sweep after the owner finished.
					for {
						s, ok := d.steal()
						if !ok {
							record(got)
							return
						}
						got = append(got, schedID(s))
					}
				default:
				}
			}
		}()
	}

	var owned []int
	for i := 0; i < items; i++ {
		d.push(mkSched(i))
		if i%3 == 0 {
			if s, ok := d.pop(); ok {
				owned = append(owned, schedID(s))
			}
		}
	}
	for {
		s, ok := d.pop()
		if !ok {
			break
		}
		owned = append(owned, schedID(s))
	}
	record(owned)
	close(stop)
	done.Wait()

	if len(seen) != items {
		t.Fatalf("consumed %d distinct items, want %d", len(seen), items)
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("item %d consumed %d times", id, n)
		}
	}
}
