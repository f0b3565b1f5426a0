// Package sim provides a deterministic discrete-event simulation
// engine: a monotonic virtual clock, an event queue with stable FIFO
// ordering for simultaneous events, and seedable RNG streams. All of
// Polyraptor's protocol evaluation (the network simulator, the TCP
// baseline and the experiment harness) runs on this engine;
// determinism per seed is what makes the paper's five-seed error bars
// reproducible.
//
// The queue is two structures under one total order, (at, seq):
//
//   - Fixed-offset lanes. Most events fire a constant delay after they
//     are scheduled (a frame's serialization plus propagation, a pull
//     pacing interval). An event scheduled d ahead goes into the lane
//     for d when one is open. The clock never runs backwards, so each
//     lane is already sorted and is a plain FIFO ring: O(1) schedule
//     and pop. A lane opens for an offset the second time in a row
//     that offset finds no lane; a table of maxLanes lanes is kept, and
//     an empty lane is reused for a new offset.
//   - An indexed 4-ary heap for every other event, O(log n).
//
// Step fires the minimum of the heap root and the lane heads, so the
// firing order is exactly what one heap over all events would give.
//
// Events are held by value (no per-event heap allocation in steady
// state) and timers are generation-tagged handles into a slot table.
// Cancel removes a heap event in O(log n); a cancelled lane event
// becomes a tombstone in its ring, and a lane compacts once its
// tombstones outnumber its live events. The head of the heap and of
// every lane is always a live event, so Pending and RunUntil's
// deadline check are exact, and cancelling an already-fired timer
// touches nothing.
package sim

import (
	"math"
	"math/bits"
	"math/rand"
	"time"
)

// Time is simulated time. It aliases time.Duration (nanosecond ticks)
// so durations, rates and pretty-printing come for free.
type Time = time.Duration

// event is a scheduled callback, stored by value in the heap or a
// lane ring. A lane tombstone has slot -1 and no fn.
type event struct {
	at   Time
	seq  uint64 // tie-break: FIFO among simultaneous events
	fn   func()
	slot int32 // index into Engine.slots
}

// slot maps a timer handle to its queue position. gen disambiguates
// reuses of the same slot: a Timer carries the generation it was issued
// with, and Cancel is a no-op unless the generations still match.
type slot struct {
	pos  int32 // index into Engine.queue or the lane's ring, or -1 when not queued
	lane int32 // lane index, or inHeap
	gen  uint32
}

const (
	// maxLanes bounds the lane table. Fig1a's events fall on four
	// offsets, incast and storage on five; the rest go to the heap.
	maxLanes = 8
	inHeap   = -1
	// noKeyAt, noKeySeq is an empty lane's head key: after any event.
	noKeyAt  = Time(math.MaxInt64)
	noKeySeq = uint64(math.MaxUint64)
)

// lane is a FIFO ring of the events scheduled one fixed offset ahead.
// n counts the entries from head, tombstones included.
type lane struct {
	buf  []event // power-of-two ring; nil until the lane first fills
	head int
	n    int
	dead int
}

// Engine is a single-threaded discrete-event scheduler. It is not safe
// for concurrent use; simulations are deterministic single-goroutine
// programs by design.
type Engine struct {
	now       Time
	queue     []event // indexed 4-ary min-heap ordered by (at, seq)
	seq       uint64
	slots     []slot
	free      []int32 // free slot indices
	processed uint64

	// Lane table. Lanes 0..nLanes-1 are open; laneOff is each lane's
	// offset and headAt/headSeq its head key (the noKey pair when
	// empty), kept in flat arrays so Step compares keys without
	// touching the rings.
	nLanes   int
	laneOff  [maxLanes]Time
	headAt   [maxLanes]Time
	headSeq  [maxLanes]uint64
	lanes    [maxLanes]lane
	inLanes  int  // live events across all lanes
	lastMiss Time // offset of the last event that found no lane
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine {
	return &Engine{lastMiss: -1}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of live events still queued. Cancelled
// events are never counted, so this is exact.
func (e *Engine) Pending() int { return len(e.queue) + e.inLanes }

// Timer identifies a scheduled event for cancellation. The zero Timer
// is valid and Cancel on it is a no-op.
type Timer struct {
	engine *Engine
	slot   int32
	gen    uint32
}

// At schedules fn at absolute time t. Scheduling in the past panics:
// it is always a logic error in a discrete-event model.
//
//polyvet:noalloc event scheduling runs per packet; slot/queue/ring reuse keeps it amortized alloc-free
func (e *Engine) At(t Time, fn func()) Timer {
	if t < e.now {
		panic("sim: scheduling event in the past")
	}
	e.seq++
	var s int32
	if n := len(e.free); n > 0 {
		s = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.slots = append(e.slots, slot{})
		s = int32(len(e.slots) - 1)
	}
	sl := &e.slots[s]
	sl.gen++
	ev := event{at: t, seq: e.seq, fn: fn, slot: s}
	if l := e.laneFor(t - e.now); l >= 0 {
		sl.lane = int32(l)
		sl.pos = e.pushLane(l, ev)
	} else {
		sl.lane = inHeap
		sl.pos = int32(len(e.queue))
		e.queue = append(e.queue, ev)
		e.siftUp(len(e.queue) - 1)
	}
	return Timer{engine: e, slot: s, gen: sl.gen}
}

// After schedules fn after delay d.
//
//polyvet:noalloc thin wrapper on At; must add no allocation of its own
func (e *Engine) After(d Time, fn func()) Timer {
	return e.At(e.now+d, fn)
}

// Cancel prevents a scheduled event from firing: a heap event is
// removed in O(log n), a lane event becomes a tombstone. Cancelling an
// already-fired or already-cancelled timer is a no-op and leaves no
// residual state: the generation tag stops a stale handle from
// touching a reused slot.
//
//polyvet:noalloc timeout cancellation runs per delivered packet
func (t Timer) Cancel() {
	e := t.engine
	if e == nil {
		return
	}
	sl := &e.slots[t.slot]
	if sl.gen != t.gen || sl.pos < 0 {
		return
	}
	if sl.lane == inHeap {
		e.removeAt(int(sl.pos))
		return
	}
	e.kill(int(sl.lane), int(sl.pos))
}

// Active reports whether the timer is still queued (scheduled, not yet
// fired or cancelled).
//
//polyvet:inline two-field check on the scheduler fast path
func (t Timer) Active() bool {
	if t.engine == nil {
		return false
	}
	sl := &t.engine.slots[t.slot]
	return sl.gen == t.gen && sl.pos >= 0
}

// release returns slot s to the free list.
//
//polyvet:noalloc runs on every event fire and cancel; free-list reuse keeps it alloc-free
func (e *Engine) release(s int32) {
	e.slots[s].pos = -1
	e.free = append(e.free, s)
}

// removeAt deletes the event at heap index i, releasing its slot.
//
//polyvet:noalloc runs on every heap event fire and cancel; free-list reuse keeps it alloc-free
func (e *Engine) removeAt(i int) {
	e.release(e.queue[i].slot)
	n := len(e.queue) - 1
	if i != n {
		e.queue[i] = e.queue[n]
		e.slots[e.queue[i].slot].pos = int32(i)
	}
	e.queue[n] = event{} // release the fn reference
	e.queue = e.queue[:n]
	if i < n && !e.siftDown(i) {
		e.siftUp(i)
	}
}

// laneFor returns the lane for an event scheduled d ahead, opening one
// when d misses twice in a row, or -1 to send the event to the heap.
func (e *Engine) laneFor(d Time) int {
	for l := 0; l < e.nLanes; l++ {
		if e.laneOff[l] == d {
			return l
		}
	}
	if d != e.lastMiss {
		e.lastMiss = d
		return -1
	}
	if e.nLanes < maxLanes {
		e.nLanes++
		e.laneOff[e.nLanes-1] = d
		return e.nLanes - 1
	}
	for l := range e.lanes {
		if e.lanes[l].n == 0 {
			e.laneOff[l] = d
			return l
		}
	}
	return -1
}

// pushLane appends ev to lane l and returns its ring index. Appending
// keeps the ring sorted: ev is at now+offset with the newest seq, and
// every earlier entry was scheduled at a clock no later than now.
//
//polyvet:noalloc per-event lane schedule; the ring-grow path is split out cold
func (e *Engine) pushLane(l int, ev event) int32 {
	ln := &e.lanes[l]
	if ln.n == len(ln.buf) {
		e.growLane(l)
	}
	i := (ln.head + ln.n) & (len(ln.buf) - 1)
	ln.buf[i] = ev
	if ln.n == 0 {
		e.headAt[l], e.headSeq[l] = ev.at, ev.seq
	}
	ln.n++
	e.inLanes++
	return int32(i)
}

// growLane doubles lane l's ring, unwrapping it to start at index 0.
// This is pushLane's cold path, split out so the annotated steady
// state stays allocation-free; noinline keeps the compiler from
// folding the allocation back into the caller.
//
//go:noinline
func (e *Engine) growLane(l int) {
	ln := &e.lanes[l]
	buf := make([]event, max(16, 2*len(ln.buf)))
	for i := 0; i < ln.n; i++ {
		buf[i] = ln.buf[(ln.head+i)&(len(ln.buf)-1)]
		if s := buf[i].slot; s >= 0 {
			e.slots[s].pos = int32(i)
		}
	}
	ln.buf, ln.head = buf, 0
}

// popLane removes and returns lane l's head event, releasing its slot.
//
//polyvet:noalloc runs on every lane event fire
func (e *Engine) popLane(l int) event {
	ln := &e.lanes[l]
	ev := ln.buf[ln.head]
	ln.buf[ln.head] = event{} // release the fn reference
	ln.head = (ln.head + 1) & (len(ln.buf) - 1)
	ln.n--
	e.inLanes--
	e.release(ev.slot)
	e.skipDead(l)
	return ev
}

// skipDead drops the tombstones at lane l's head and refreshes its
// head key, so the head is always live.
func (e *Engine) skipDead(l int) {
	ln := &e.lanes[l]
	for ln.n > 0 && ln.buf[ln.head].slot < 0 {
		ln.head = (ln.head + 1) & (len(ln.buf) - 1)
		ln.n--
		ln.dead--
	}
	if ln.n == 0 {
		e.headAt[l], e.headSeq[l] = noKeyAt, noKeySeq
		return
	}
	h := &ln.buf[ln.head]
	e.headAt[l], e.headSeq[l] = h.at, h.seq
}

// kill cancels the event at ring index i of lane l, leaving a
// tombstone, and compacts the lane once tombstones outnumber live
// events.
//
//polyvet:noalloc lane-timer cancellation runs per delivered packet
func (e *Engine) kill(l, i int) {
	ln := &e.lanes[l]
	e.release(ln.buf[i].slot)
	ln.buf[i] = event{slot: -1}
	ln.dead++
	e.inLanes--
	if i == ln.head {
		e.skipDead(l)
	}
	if 2*ln.dead > ln.n {
		e.compact(l)
	}
}

// compact squeezes lane l's tombstones out in place, keeping order.
// The head is live, so it stays where it is.
func (e *Engine) compact(l int) {
	ln := &e.lanes[l]
	mask := len(ln.buf) - 1
	j := 0
	for i := 0; i < ln.n; i++ {
		src := (ln.head + i) & mask
		ev := ln.buf[src]
		if ev.slot < 0 {
			continue
		}
		dst := (ln.head + j) & mask
		ln.buf[dst] = ev
		e.slots[ev.slot].pos = int32(dst)
		j++
	}
	for i := j; i < ln.n; i++ {
		ln.buf[(ln.head+i)&mask] = event{}
	}
	ln.n, ln.dead = j, 0
}

// next returns where the earliest live event is, a lane index or
// inHeap, and its time. The queue must not be empty.
func (e *Engine) next() (int, Time) {
	src, at, seq := inHeap, noKeyAt, noKeySeq
	if len(e.queue) > 0 {
		at, seq = e.queue[0].at, e.queue[0].seq
	}
	seqs := e.headSeq[:e.nLanes]
	for l, la := range e.headAt[:len(seqs)] {
		// Select without a branch: which lane wins is data-dependent
		// and would mispredict. A plain scan of the ring heads with a
		// two-compare branch ran Fig1a about 14% slower end to end
		// (EXPERIMENTS.md, "Fixed-offset lanes in the event engine").
		m := earlier(la, seqs[l], at, seq)
		at ^= (at ^ la) & Time(m)
		seq ^= (seq ^ seqs[l]) & m
		src ^= (src ^ l) & int(m)
	}
	return src, at
}

// fire runs the head event of src (a lane index or inHeap).
func (e *Engine) fire(src int) {
	var ev event
	if src == inHeap {
		ev = e.queue[0]
		e.removeAt(0)
	} else {
		ev = e.popLane(src)
	}
	e.now = ev.at
	e.processed++
	ev.fn()
}

// Step executes the next event. It returns false when the queue is
// empty.
func (e *Engine) Step() bool {
	if e.Pending() == 0 {
		return false
	}
	src, _ := e.next()
	e.fire(src)
	return true
}

// Run executes events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline, leaving later
// events queued and the clock at min(deadline, last event time). Every
// queue head is live (cancellation drops dead lane heads eagerly), so
// the deadline check is exact.
func (e *Engine) RunUntil(deadline Time) {
	for e.Pending() > 0 {
		src, at := e.next()
		if at > deadline {
			break
		}
		e.fire(src)
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// RunFor executes events for d simulated time from now.
func (e *Engine) RunFor(d Time) { e.RunUntil(e.now + d) }

// earlier orders events by (at, seq): time order with FIFO
// tie-breaking for simultaneous events. It returns all ones when
// (at1, seq1) comes first, else zero, from one 128-bit unsigned
// subtraction (at with its sign bit flipped as the high word): SUB/SBB
// with no branch, and a mask the lane scan selects with.
//
//polyvet:inline event comparator; called per open lane per event and O(log n) times per heap event
func earlier(at1 Time, seq1 uint64, at2 Time, seq2 uint64) uint64 {
	_, borrow := bits.Sub64(seq1, seq2, 0)
	_, borrow = bits.Sub64(uint64(at1)^(1<<63), uint64(at2)^(1<<63), borrow)
	return -borrow
}

// less orders heap entries by (at, seq).
//
//polyvet:inline heap comparator; called O(log n) times per event
func (e *Engine) less(i, j int) bool {
	return earlier(e.queue[i].at, e.queue[i].seq, e.queue[j].at, e.queue[j].seq) != 0
}

//polyvet:inline heap swap; called O(log n) times per event
func (e *Engine) swap(i, j int) {
	e.queue[i], e.queue[j] = e.queue[j], e.queue[i]
	e.slots[e.queue[i].slot].pos = int32(i)
	e.slots[e.queue[j].slot].pos = int32(j)
}

func (e *Engine) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 4
		if !e.less(i, p) {
			break
		}
		e.swap(i, p)
		i = p
	}
}

// siftDown restores heap order below i and reports whether i moved.
func (e *Engine) siftDown(i int) bool {
	start := i
	n := len(e.queue)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if e.less(j, m) {
				m = j
			}
		}
		if !e.less(m, i) {
			break
		}
		e.swap(i, m)
		i = m
	}
	return i > start
}

// RNG returns a deterministic random stream derived from seed and a
// stream label, so independent components (workload arrivals, ECMP
// hashing, overhead sampling) never share state and results are
// reproducible per seed.
func RNG(seed int64, stream string) *rand.Rand {
	h := uint64(seed) * 0x9E3779B97F4A7C15
	for _, b := range []byte(stream) {
		h ^= uint64(b)
		h *= 0x100000001B3
	}
	return rand.New(rand.NewSource(int64(h)))
}
