package sim

import (
	"testing"
	"time"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(30*time.Microsecond, func() { order = append(order, 3) })
	e.At(10*time.Microsecond, func() { order = append(order, 1) })
	e.At(20*time.Microsecond, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 30*time.Microsecond {
		t.Fatalf("Now = %v", e.Now())
	}
}

func TestSimultaneousEventsAreFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(time.Microsecond, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events not FIFO: %v", order)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	e := NewEngine()
	var at Time
	e.At(5*time.Microsecond, func() {
		e.After(7*time.Microsecond, func() { at = e.Now() })
	})
	e.Run()
	if at != 12*time.Microsecond {
		t.Fatalf("After fired at %v, want 12µs", at)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(10*time.Microsecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5*time.Microsecond, func() {})
	})
	e.Run()
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	tm := e.At(time.Microsecond, func() { fired = true })
	tm.Cancel()
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	// Double-cancel and post-run cancel are no-ops.
	tm.Cancel()
}

func TestCancelOneOfMany(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(time.Microsecond, func() { order = append(order, 1) })
	tm := e.At(2*time.Microsecond, func() { order = append(order, 2) })
	e.At(3*time.Microsecond, func() { order = append(order, 3) })
	tm.Cancel()
	e.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 3 {
		t.Fatalf("order = %v", order)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.At(10*time.Microsecond, func() { fired++ })
	e.At(20*time.Microsecond, func() { fired++ })
	e.At(30*time.Microsecond, func() { fired++ })
	e.RunUntil(20 * time.Microsecond)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
	if e.Now() != 20*time.Microsecond {
		t.Fatalf("Now = %v, want 20µs", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
	e.Run()
	if fired != 3 {
		t.Fatalf("fired = %d after Run, want 3", fired)
	}
}

func TestRunForAdvancesClockWithoutEvents(t *testing.T) {
	e := NewEngine()
	e.RunFor(time.Millisecond)
	if e.Now() != time.Millisecond {
		t.Fatalf("Now = %v", e.Now())
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	e := NewEngine()
	count := 0
	var recur func()
	recur = func() {
		count++
		if count < 5 {
			e.After(time.Microsecond, recur)
		}
	}
	e.After(time.Microsecond, recur)
	e.Run()
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if e.Processed() != 5 {
		t.Fatalf("Processed = %d, want 5", e.Processed())
	}
}

// Regression (ISSUE 3): RunUntil must never execute events past the
// deadline. The old engine left cancelled events in the heap, so a
// cancelled head with at <= deadline made Step skip it and fire the
// next live event unconditionally — even when that event was later
// than the deadline.
func TestRunUntilRespectsDeadlineWithCancelledHead(t *testing.T) {
	e := NewEngine()
	tm := e.At(10*time.Microsecond, func() { t.Error("cancelled event fired") })
	fired := false
	e.At(30*time.Microsecond, func() { fired = true })
	tm.Cancel()
	e.RunUntil(20 * time.Microsecond)
	if fired {
		t.Fatal("RunUntil executed an event past the deadline")
	}
	if e.Now() != 20*time.Microsecond {
		t.Fatalf("Now = %v, want 20µs", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
	e.Run()
	if !fired {
		t.Fatal("later event never fired")
	}
}

// Regression (ISSUE 3): cancelling an already-fired timer must leave no
// residual engine state. The old engine inserted a cancelled-map entry
// that was never reaped — a permanent per-cancel leak in long
// simulations.
func TestCancelAfterFireLeavesNoResidualState(t *testing.T) {
	e := NewEngine()
	var timers []Timer
	for i := 0; i < 1000; i++ {
		timers = append(timers, e.After(Time(i), func() {}))
	}
	e.Run()
	for _, tm := range timers {
		tm.Cancel()
		tm.Cancel() // double-cancel after fire is also a no-op
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", e.Pending())
	}
	if live := len(e.slots) - len(e.free); live != 0 {
		t.Fatalf("%d slots still held after cancel-after-fire", live)
	}
}

// A stale Timer handle whose slot has been reused by a newer event must
// not cancel that newer event: the generation tag protects it.
func TestStaleCancelDoesNotKillReusedSlot(t *testing.T) {
	e := NewEngine()
	old := e.At(time.Microsecond, func() {})
	e.Run() // fires; slot returns to the free list
	fired := false
	e.After(time.Microsecond, func() { fired = true }) // reuses the slot
	old.Cancel()                                       // stale handle
	e.Run()
	if !fired {
		t.Fatal("stale Cancel removed a reused slot's event")
	}
}

func TestTimerActive(t *testing.T) {
	var zero Timer
	if zero.Active() {
		t.Fatal("zero Timer reports active")
	}
	e := NewEngine()
	tm := e.At(time.Microsecond, func() {})
	if !tm.Active() {
		t.Fatal("scheduled timer not active")
	}
	tm.Cancel()
	if tm.Active() {
		t.Fatal("cancelled timer still active")
	}
	tm2 := e.At(time.Microsecond, func() {})
	e.Run()
	if tm2.Active() {
		t.Fatal("fired timer still active")
	}
}

func TestRNGDeterminismAndIndependence(t *testing.T) {
	a1 := RNG(42, "arrivals")
	a2 := RNG(42, "arrivals")
	b := RNG(42, "ecmp")
	c := RNG(43, "arrivals")
	same, diffStream, diffSeed := 0, 0, 0
	for i := 0; i < 100; i++ {
		x := a1.Uint64()
		if x == a2.Uint64() {
			same++
		}
		if x == b.Uint64() {
			diffStream++
		}
		if x == c.Uint64() {
			diffSeed++
		}
	}
	if same != 100 {
		t.Fatal("same seed+stream must reproduce identical sequences")
	}
	if diffStream > 2 || diffSeed > 2 {
		t.Fatal("different streams/seeds must be independent")
	}
}

// A lane opens for an offset the second time in a row it finds none; a
// full table sends further offsets to the heap, and an empty lane is
// handed to a new offset. Firing order is (at, seq) throughout.
func TestLaneTableOpensFallsBackAndReuses(t *testing.T) {
	e := NewEngine()
	var order []Time
	rec := func() { order = append(order, e.Now()) }
	lane := func(tm Timer) int32 { return e.slots[tm.slot].lane }
	if l := lane(e.After(5, rec)); l != inHeap {
		t.Fatalf("first event at a new offset went to lane %d, want the heap", l)
	}
	for d := Time(1); d <= maxLanes; d++ {
		e.After(d, rec)
		if l := lane(e.After(d, rec)); l != int32(d-1) {
			t.Fatalf("offset %v: second miss in a row went to lane %d, want %d", d, l, d-1)
		}
	}
	e.After(maxLanes+1, rec)
	if l := lane(e.After(maxLanes+1, rec)); l != inHeap {
		t.Fatalf("full lane table put a ninth offset in lane %d, want the heap", l)
	}
	e.Run()
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Fatalf("events fired out of time order: %v", order)
		}
	}
	// Every lane is empty now, so a new offset takes the first of them.
	e.After(100, rec)
	if l := lane(e.After(100, rec)); l != 0 {
		t.Fatalf("new offset went to lane %d, want the emptied lane 0", l)
	}
	if e.laneOff[0] != 100 || e.nLanes != maxLanes {
		t.Fatalf("lane 0 offset %v with %d lanes open, want 100 and %d", e.laneOff[0], e.nLanes, maxLanes)
	}
}

// Cancelling a lane's head, a middle entry and its tail keeps Pending
// exact and the survivors in order; once tombstones outnumber live
// entries the lane compacts.
func TestLaneCancelAndCompaction(t *testing.T) {
	e := NewEngine()
	var fired []int
	var tms []Timer
	for i := 0; i < 10; i++ {
		e.RunFor(1)
		tms = append(tms, e.After(50, func() { fired = append(fired, i) }))
	}
	ln := &e.lanes[0]
	if e.nLanes != 1 || ln.n != 9 {
		t.Fatalf("%d lanes open, lane 0 holds %d, want 1 lane holding 9", e.nLanes, ln.n)
	}
	tms[1].Cancel() // head (event 0 went to the heap)
	tms[5].Cancel() // middle
	tms[9].Cancel() // tail
	if e.Pending() != 7 || ln.dead != 2 || e.headSeq[0] != 3 {
		t.Fatalf("Pending %d, dead %d, head seq %d; want 7, 2, 3", e.Pending(), ln.dead, e.headSeq[0])
	}
	tms[3].Cancel()
	tms[7].Cancel()
	if ln.dead != 4 || ln.n != 8 {
		t.Fatalf("lane holds %d entries with %d dead; want 8 and 4 (tombstones only equal live ones)", ln.n, ln.dead)
	}
	tms[8].Cancel()
	if ln.dead != 0 || ln.n != 3 {
		t.Fatalf("lane holds %d entries with %d dead after tombstones outnumbered live ones; want 3 and 0", ln.n, ln.dead)
	}
	e.Run()
	want := []int{0, 2, 4, 6}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
}
