package core

import (
	"sync/atomic"

	"icb/internal/sched"
)

// wsDeque is a Chase–Lev work-stealing deque of replay schedules: the
// owning worker pushes and pops at the bottom (LIFO, so a worker drains
// its own subtree depth-first, like a local stack), while thieves steal
// single items from the top (FIFO, so a steal takes the oldest item — the
// one closest to the root of the subtree and therefore the largest
// remaining amount of work).
//
// The implementation is the classic lock-free algorithm (Chase & Lev,
// SPAA 2005) on Go's sequentially-consistent atomics: top only ever moves
// forward and is the sole contended word (thieves CAS it; the owner CASes
// it only for the last remaining item), bottom is owned by the worker, and
// the circular buffer grows by copy-and-swap, never shrinks, and is never
// freed while a thief may still read it (the garbage collector is the
// memory-reclamation scheme, which is what makes the textbook algorithm
// safe to port directly). Slots hold *sched.Schedule so concurrent reads
// of recycled slots are single-word atomic loads.
type wsDeque struct {
	top    atomic.Int64
	bottom atomic.Int64
	buf    atomic.Pointer[wsBuf]
}

// wsBuf is one immutable-size circular buffer generation of a deque.
type wsBuf struct {
	mask  int64
	items []atomic.Pointer[sched.Schedule]
}

// wsDequeInitialSize is the slot count of a deque's first buffer (must be
// a power of two). The zero deque is empty and allocates it at the first
// push; bounds with more queued work grow by doubling.
const wsDequeInitialSize = 64

// push appends s at the bottom. Owner only.
func (d *wsDeque) push(s sched.Schedule) {
	b := d.bottom.Load()
	t := d.top.Load()
	buf := d.buf.Load()
	if buf == nil || b-t >= int64(len(buf.items))-1 {
		buf = d.grow(buf, t, b)
	}
	sc := s
	buf.items[b&buf.mask].Store(&sc)
	d.bottom.Store(b + 1)
}

// pop removes and returns the most recently pushed item. Owner only; it
// races thieves for the last remaining item with a CAS on top.
func (d *wsDeque) pop() (sched.Schedule, bool) {
	b := d.bottom.Load() - 1
	d.bottom.Store(b)
	t := d.top.Load()
	if t > b {
		// Empty: restore the canonical empty state (top == bottom).
		d.bottom.Store(t)
		return nil, false
	}
	buf := d.buf.Load()
	it := buf.items[b&buf.mask].Load()
	if t != b {
		return *it, true
	}
	// Last item: win it from any concurrent thief or lose it to one.
	won := d.top.CompareAndSwap(t, t+1)
	d.bottom.Store(t + 1)
	if !won {
		return nil, false
	}
	return *it, true
}

// steal removes and returns the oldest item. Safe for any goroutine; a
// lost CAS means another thief (or the owner taking the last item) got
// there first, in which case the attempt retries until the deque is seen
// empty.
func (d *wsDeque) steal() (sched.Schedule, bool) {
	for {
		t := d.top.Load()
		b := d.bottom.Load()
		if t >= b {
			return nil, false
		}
		buf := d.buf.Load()
		it := buf.items[t&buf.mask].Load()
		if d.top.CompareAndSwap(t, t+1) {
			return *it, true
		}
	}
}

// grow doubles the buffer, copying the live window [t, b), or allocates
// the first one. Owner only.
func (d *wsDeque) grow(old *wsBuf, t, b int64) *wsBuf {
	n := int64(wsDequeInitialSize)
	if old != nil {
		n = (old.mask + 1) * 2
	}
	nb := &wsBuf{mask: n - 1, items: make([]atomic.Pointer[sched.Schedule], n)}
	for i := t; i < b; i++ {
		nb.items[i&nb.mask].Store(old.items[i&old.mask].Load())
	}
	d.buf.Store(nb)
	return nb
}

// size returns the current item count. Exact only when quiesced (owner
// parked, no thieves); a racy read is still a usable heuristic.
func (d *wsDeque) size() int {
	n := d.bottom.Load() - d.top.Load()
	if n < 0 {
		return 0
	}
	return int(n)
}

// snapshotQuiesced copies the queued items in steal (FIFO) order without
// mutating the deque. Callers must hold the search's safepoint: no owner
// push/pop and no thief may be in flight.
func (d *wsDeque) snapshotQuiesced() []sched.Schedule {
	t, b := d.top.Load(), d.bottom.Load()
	if t >= b {
		return nil
	}
	buf := d.buf.Load()
	out := make([]sched.Schedule, 0, b-t)
	for i := t; i < b; i++ {
		out = append(out, *buf.items[i&buf.mask].Load())
	}
	return out
}

// reverseQuiesced reverses the queued items in place, so the oldest is
// popped first. Same precondition as snapshotQuiesced.
func (d *wsDeque) reverseQuiesced() {
	t, b := d.top.Load(), d.bottom.Load()-1
	if t >= b {
		return
	}
	buf := d.buf.Load()
	for ; t < b; t, b = t+1, b-1 {
		x, y := &buf.items[t&buf.mask], &buf.items[b&buf.mask]
		xv := x.Load()
		x.Store(y.Load())
		y.Store(xv)
	}
}
