package sim

import (
	"testing"
	"time"
)

// BenchmarkScheduleRun measures raw event throughput: a self-refilling
// queue of depth 1024, each fired event scheduling its replacement —
// the steady-state shape of a packet-level simulation.
func BenchmarkScheduleRun(b *testing.B) {
	const depth = 1024
	e := NewEngine()
	var refill func()
	refill = func() { e.After(time.Microsecond, refill) }
	for i := 0; i < depth; i++ {
		e.After(time.Duration(i), refill)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkScheduleCancel measures the timer churn pattern of the TCP
// and Polyraptor endpoints: schedule a timeout, then cancel it before
// it fires (the common case — RTOs almost never expire).
func BenchmarkScheduleCancel(b *testing.B) {
	e := NewEngine()
	// Keep one live event so the queue never empties.
	var keepalive func()
	keepalive = func() { e.After(time.Microsecond, keepalive) }
	e.After(time.Microsecond, keepalive)
	nop := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm := e.After(time.Millisecond, nop)
		tm.Cancel()
		if i%1024 == 0 {
			e.Step()
		}
	}
}

// mixedLoad is a self-refilling queue with Fig1a's event mix. Each fired
// event schedules its successor at one of Fig1a's four repeating
// offsets, in their measured proportions (10.512 µs 42%, 22 µs 28%,
// 12 µs 14%, 512 ns 8%; EXPERIMENTS.md "Performance"). One event in
// twenty also arms a far-off timer at a random 1-3 ms, and half of those
// are cancelled while still queued, the way transport timeouts are.
type mixedLoad struct {
	e     *Engine
	hot   [1024]Time
	far   [64]Time
	armed [8]Timer
	i     int
	fire  func()
}

func newMixedLoad(depth int) *mixedLoad {
	rng := RNG(1, "mixed-offsets")
	m := &mixedLoad{e: NewEngine()}
	for i := range m.hot {
		switch r := rng.Intn(92); {
		case r < 42:
			m.hot[i] = 10512
		case r < 70:
			m.hot[i] = 22 * time.Microsecond
		case r < 84:
			m.hot[i] = 12 * time.Microsecond
		default:
			m.hot[i] = 512
		}
	}
	for i := range m.far {
		m.far[i] = time.Millisecond + Time(rng.Intn(2000))*time.Microsecond
	}
	nop := func() {}
	m.fire = func() {
		m.i++
		m.e.After(m.hot[m.i%len(m.hot)], m.fire)
		if m.i%20 == 0 {
			k := m.i / 20
			if k%2 == 0 {
				m.armed[k%len(m.armed)].Cancel()
			}
			m.armed[k%len(m.armed)] = m.e.After(m.far[k%len(m.far)], nop)
		}
	}
	for i := 0; i < depth; i++ {
		m.e.After(Time(i), m.fire)
	}
	return m
}

// BenchmarkMixedOffsets measures the engine on a packet-level
// simulation's event mix: mostly repeating offsets (lane traffic), with
// far-off timers, half of them cancelled, on the heap.
func BenchmarkMixedOffsets(b *testing.B) {
	m := newMixedLoad(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.e.Step()
	}
}

// Once the rings, heap and slot table have grown to the load's peak,
// scheduling, firing and cancelling allocate nothing.
func TestMixedOffsetsSteadyStateAllocFree(t *testing.T) {
	m := newMixedLoad(1024)
	for i := 0; i < 400_000; i++ { // past the far timers' 3 ms horizon
		m.e.Step()
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 1000; i++ {
			m.e.Step()
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocs per 1000 steady-state events, want 0", allocs)
	}
}
