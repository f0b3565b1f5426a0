package sim

import (
	"math"
	"math/rand"
	"testing"
)

// refModel is a brute-force reference event queue: a flat slice scanned
// linearly, with the same (at, seq) ordering contract as the engine.
type refModel struct {
	now    Time
	seq    uint64
	events []refEvent
}

type refEvent struct {
	at   Time
	seq  uint64
	id   int
	dead bool
}

func (m *refModel) schedule(at Time, id int) int {
	m.seq++
	m.events = append(m.events, refEvent{at: at, seq: m.seq, id: id})
	return len(m.events) - 1
}

func (m *refModel) cancel(idx int) { m.events[idx].dead = true }

// next returns the index of the earliest live event with at <=
// deadline, or -1.
func (m *refModel) next(deadline Time) int {
	best := -1
	for i, ev := range m.events {
		if ev.dead || ev.at > deadline {
			continue
		}
		if best < 0 || ev.at < m.events[best].at ||
			(ev.at == m.events[best].at && ev.seq < m.events[best].seq) {
			best = i
		}
	}
	return best
}

func (m *refModel) fire(i int, log []int) []int {
	m.now = m.events[i].at
	m.events[i].dead = true
	return append(log, m.events[i].id)
}

// runUntil fires all live events with at <= deadline in (at, seq)
// order, appending fired ids to log, and returns the updated log.
func (m *refModel) runUntil(deadline Time, log []int) []int {
	for i := m.next(deadline); i >= 0; i = m.next(deadline) {
		log = m.fire(i, log)
	}
	if m.now < deadline {
		m.now = deadline
	}
	return log
}

func (m *refModel) live() int {
	n := 0
	for _, ev := range m.events {
		if !ev.dead {
			n++
		}
	}
	return n
}

// coverage counts the lane paths a trace reached, so a test can require
// that each one was exercised.
type coverage struct {
	laneEvents    int // events scheduled into a lane
	laneReuses    int // lanes re-assigned to a new offset
	heapFallbacks int // repeated offsets sent to the heap by a full lane table
	headKills     int // cancels of a lane's head
	midKills      int // cancels strictly inside a lane
	tailKills     int // cancels of a lane's newest entry
	compactions   int // lanes squeezed free of tombstones
	deadlineGaps  int // RunUntil stops with live events past the deadline
}

func (c *coverage) add(o coverage) {
	c.laneEvents += o.laneEvents
	c.laneReuses += o.laneReuses
	c.heapFallbacks += o.heapFallbacks
	c.headKills += o.headKills
	c.midKills += o.midKills
	c.tailKills += o.tailKills
	c.compactions += o.compactions
	c.deadlineGaps += o.deadlineGaps
}

// lockstep drives an Engine and a refModel through the same operations
// and, after each one, requires the same clock, firing order and live
// count, exact Active answers for every timer ever issued, and bounded
// slot and lane storage.
type lockstep struct {
	tb        testing.TB
	e         *Engine
	m         refModel
	got, want []int
	checked   int         // prefix of got already compared with want
	timers    []lockTimer // every timer issued, fired ones included
	peak      int         // largest Pending seen
	cov       coverage
}

type lockTimer struct {
	tm  Timer
	ref int
}

func newLockstep(tb testing.TB) *lockstep {
	return &lockstep{tb: tb, e: NewEngine()}
}

func (h *lockstep) schedule(d Time) {
	e := h.e
	missBefore, offBefore, opened := e.lastMiss, e.laneOff, e.nLanes
	at := e.Now() + d
	id := len(h.timers)
	tm := e.At(at, func() { h.got = append(h.got, id) })
	h.timers = append(h.timers, lockTimer{tm, h.m.schedule(at, id)})
	switch l := e.slots[tm.slot].lane; {
	case l != inHeap:
		h.cov.laneEvents++
		if int(l) < opened && offBefore[l] != d {
			h.cov.laneReuses++
		}
	case missBefore == d && e.nLanes == maxLanes:
		h.cov.heapFallbacks++
	}
	h.check("schedule")
}

func (h *lockstep) cancel(i int) {
	lt := h.timers[i]
	if sl := h.e.slots[lt.tm.slot]; lt.tm.Active() && sl.lane != inHeap {
		ln := &h.e.lanes[sl.lane]
		pos, head := int(sl.pos), ln.head
		switch pos {
		case head:
			h.cov.headKills++
		case (ln.head + ln.n - 1) & (len(ln.buf) - 1):
			h.cov.tailKills++
		default:
			h.cov.midKills++
		}
		lt.tm.Cancel()
		if pos != head && ln.dead == 0 {
			h.cov.compactions++
		}
	} else {
		lt.tm.Cancel()
	}
	// Cancel after fire must be a no-op in both.
	if !h.m.events[lt.ref].dead {
		h.m.cancel(lt.ref)
	}
	h.check("cancel")
}

func (h *lockstep) step() {
	fired := h.e.Step()
	if i := h.m.next(math.MaxInt64); i >= 0 {
		h.want = h.m.fire(i, h.want)
	} else if fired {
		h.tb.Fatal("engine stepped with an empty model")
	}
	h.check("step")
}

func (h *lockstep) runUntil(deadline Time) {
	h.e.RunUntil(deadline)
	h.want = h.m.runUntil(deadline, h.want)
	if h.e.Pending() > 0 {
		h.cov.deadlineGaps++
	}
	h.check("run-until")
}

// finish drains both queues and requires an empty engine with no slot
// held.
func (h *lockstep) finish() {
	h.e.Run()
	for i := h.m.next(math.MaxInt64); i >= 0; i = h.m.next(math.MaxInt64) {
		h.want = h.m.fire(i, h.want)
	}
	h.check("run")
	if h.e.Pending() != 0 {
		h.tb.Fatalf("Pending = %d after Run", h.e.Pending())
	}
	if live := len(h.e.slots) - len(h.e.free); live != 0 {
		h.tb.Fatalf("%d slots leaked", live)
	}
}

func (h *lockstep) check(op string) {
	tb, e := h.tb, h.e
	tb.Helper()
	if e.Now() != h.m.now {
		tb.Fatalf("after %s: clock %v, model %v", op, e.Now(), h.m.now)
	}
	if len(h.got) != len(h.want) {
		tb.Fatalf("after %s: fired %d events, model fired %d", op, len(h.got), len(h.want))
	}
	// Every event fired since the last check is compared, so the whole
	// firing order is checked once, however many events one op fires.
	for i := h.checked; i < len(h.got); i++ {
		if h.got[i] != h.want[i] {
			tb.Fatalf("after %s: firing order diverges at %d: engine %d, model %d", op, i, h.got[i], h.want[i])
		}
	}
	h.checked = len(h.got)
	pending := e.Pending()
	if live := h.m.live(); pending != live {
		tb.Fatalf("after %s: Pending = %d, model has %d live", op, pending, live)
	}
	h.peak = max(h.peak, pending)
	for i, lt := range h.timers {
		if lt.tm.Active() == h.m.events[lt.ref].dead {
			tb.Fatalf("after %s: timer %d Active = %v, model dead = %v", op, i, lt.tm.Active(), h.m.events[lt.ref].dead)
		}
	}
	// Tombstones hold no slot: every held slot is a live event.
	if held := len(e.slots) - len(e.free); held != pending {
		tb.Fatalf("after %s: %d slots held for %d live events", op, held, pending)
	}
	if len(e.slots) > h.peak {
		tb.Fatalf("after %s: slot table %d larger than peak live %d", op, len(e.slots), h.peak)
	}
	inLanes, entries := 0, 0
	for l := 0; l < e.nLanes; l++ {
		ln := &e.lanes[l]
		inLanes += ln.n - ln.dead
		entries += ln.n
		if ln.n == 0 {
			if e.headAt[l] != noKeyAt || e.headSeq[l] != noKeySeq {
				tb.Fatalf("after %s: empty lane %d has head key (%v, %d)", op, l, e.headAt[l], e.headSeq[l])
			}
			continue
		}
		head := ln.buf[ln.head]
		if head.slot < 0 {
			tb.Fatalf("after %s: lane %d head is a tombstone", op, l)
		}
		if head.at != e.headAt[l] || head.seq != e.headSeq[l] || head.at-e.laneOff[l] > e.Now() {
			tb.Fatalf("after %s: lane %d head key out of date", op, l)
		}
	}
	if inLanes != e.inLanes {
		tb.Fatalf("after %s: lanes hold %d live events, inLanes = %d", op, inLanes, e.inLanes)
	}
	// Compaction keeps tombstones at most about the live count, so ring
	// entries stay within twice the peak of live events.
	if entries > 2*h.peak+maxLanes {
		tb.Fatalf("after %s: %d lane entries for a live peak of %d", op, entries, h.peak)
	}
}

// hotSetSizes cycles the number of repeating offsets per phase: below,
// at and above the lane table's size, so lanes open, fill, empty and
// are reused, and a full table sends repeated offsets to the heap.
var hotSetSizes = []int{3, 12, 5, 10, 2, 8, 16, 4}

// TestRandomizedAgainstReferenceModel drives the engine and a
// brute-force model through the same random schedule/cancel/run-until
// trace and requires identical firing order, clock and live-event
// count at every step. Fixed seeds keep failures reproducible. The
// uniform mode draws offsets at random, so almost every event takes
// the heap; the hot-offset mode draws most offsets from a small set
// that changes every 500 operations, the shape of a packet-level
// simulation, and cancels lane heads, middles and tails, with bursts
// that force compaction.
func TestRandomizedAgainstReferenceModel(t *testing.T) {
	var cov coverage
	for seed := int64(1); seed <= 5; seed++ {
		for _, hot := range []bool{false, true} {
			stream := "sim-stress"
			if hot {
				stream = "sim-stress-hot"
			}
			h := newLockstep(t)
			runRandomTrace(h, RNG(seed, stream), hot)
			h.finish()
			cov.add(h.cov)
		}
	}
	t.Logf("coverage: %+v", cov)
	for name, n := range map[string]int{
		"lane events": cov.laneEvents, "lane reuses": cov.laneReuses,
		"heap fallbacks": cov.heapFallbacks, "head cancels": cov.headKills,
		"middle cancels": cov.midKills, "tail cancels": cov.tailKills,
		"compactions": cov.compactions, "deadline gaps": cov.deadlineGaps,
	} {
		if n == 0 {
			t.Errorf("trace never reached %s", name)
		}
	}
}

func runRandomTrace(h *lockstep, rng *rand.Rand, hot bool) {
	var offsets []Time
	oldest := 0 // cursor for head cancels: the earliest timer that may be live
	for op := 0; op < 4000; op++ {
		if hot && op%500 == 0 {
			offsets = offsets[:0]
			// Wider sets spread wider, so a full lane table stays busy.
			n := hotSetSizes[(op/500)%len(hotSetSizes)]
			for range n {
				offsets = append(offsets, Time(rng.Intn(100*n)))
			}
		}
		switch r := rng.Float64(); {
		case r < 0.55:
			if !hot || rng.Float64() < 0.15 {
				h.schedule(Time(rng.Intn(1000)))
				break
			}
			// Packets come in trains: the same offset once or twice.
			d := offsets[rng.Intn(len(offsets))]
			for range 1 + rng.Intn(2) {
				h.schedule(d)
			}
		case r < 0.80 && len(h.timers) > 0:
			if !hot {
				h.cancel(rng.Intn(len(h.timers)))
				break
			}
			switch rng.Intn(4) {
			case 0:
				h.cancel(rng.Intn(len(h.timers)))
			case 1:
				h.cancel(len(h.timers) - 1)
			case 2:
				for oldest < len(h.timers)-1 && !h.timers[oldest].tm.Active() {
					oldest++
				}
				h.cancel(oldest)
			default:
				// A burst over the newest timers leaves more tombstones
				// than live events in their lanes.
				for i := max(0, len(h.timers)-40); i < len(h.timers); i += 1 + rng.Intn(2) {
					h.cancel(i)
				}
			}
		default:
			h.runUntil(h.e.Now() + Time(rng.Intn(500)))
		}
	}
}

// FuzzEngine decodes op bytes into schedule, cancel, step and run-until
// operations and checks the engine against the reference model after
// each one. Most schedule ops pick from a small offset table, so lanes
// open, fill, go stale and get reused as in a real simulation.
func FuzzEngine(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 1, 4, 0, 6, 0, 7, 3})
	f.Add([]byte{0, 1, 0, 1, 0, 2, 0, 2, 5, 0, 4, 1, 4, 3, 7, 255})
	f.Add([]byte{0, 9, 0, 9, 3, 200, 1, 9, 2, 9, 5, 0, 5, 0, 6, 0, 6, 0, 7, 10})
	f.Fuzz(func(t *testing.T, ops []byte) {
		// The checks after each op cost O(timers issued); a cap keeps
		// every exec, and the fuzzer's minimization, fast.
		if len(ops) > 1024 {
			ops = ops[:1024]
		}
		offsets := [...]Time{0, 1, 3, 7, 12, 22, 100, 512, 1000, 10512, 200000, 5}
		h := newLockstep(t)
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], int(ops[i+1])
			switch op % 8 {
			case 0, 1, 2:
				h.schedule(offsets[arg%len(offsets)])
			case 3:
				h.schedule(Time(arg) * 13)
			case 4:
				if len(h.timers) > 0 {
					h.cancel(arg % len(h.timers))
				}
			case 5:
				if len(h.timers) > 0 {
					h.cancel(len(h.timers) - 1 - arg%len(h.timers))
				}
			case 6:
				h.step()
			case 7:
				h.runUntil(h.e.Now() + Time(arg)*50)
			}
		}
		h.finish()
	})
}
