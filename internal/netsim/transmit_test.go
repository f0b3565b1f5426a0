package netsim

import (
	"testing"
	"time"

	"polyraptor/internal/sim"
)

// Tests for the port transmit model: a frame on an idle line costs one
// engine event (its delivery), txDone runs only behind a waiting
// frame, and faults are taken at documented points.

// chain builds src -> s1 -> ... -> sN -> dst with drop-tail switches
// (no trimming) routing everything toward dst on port 1.
func chain(cfg Config, switches int) (n *Network, src, dst *Host, sws []*Switch) {
	cfg.Trimming = false
	n = New(cfg)
	src = n.AddHost()
	prev := Node(src)
	for i := 0; i < switches; i++ {
		sw := n.AddSwitch("chain")
		n.Connect(prev, sw) // sw port 0 faces the source side
		sw.Route = func(*Packet) []int { return []int{1} }
		sws = append(sws, sw)
		prev = sw
	}
	dst = n.AddHost()
	n.Connect(prev, dst) // last switch port 1 faces dst
	return n, src, dst, sws
}

// TestStoreAndForwardClosedForm: random send schedules through a
// drop-tail chain, with random per-hop rates and frame sizes, deliver
// every frame at the closed-form
// store-and-forward time. Per hop h, frame i departs at
// dep_i = max(arr_i, dep_{i-1}) + tx_i and arrives at the next hop at
// dep_i + delay. Any change to when a frame leaves a port shows here;
// a change in the order of simultaneous events cannot.
func TestStoreAndForwardClosedForm(t *testing.T) {
	rng := sim.RNG(7, "test-closed-form")
	for trial := 0; trial < 50; trial++ {
		cfg := DefaultConfig()
		cfg.DropTailCap = 1 << 20
		cfg.LinkDelay = sim.Time(1000 + rng.Intn(20000))
		hopsN := 1 + rng.Intn(4)
		n, src, dst, sws := chain(cfg, hopsN)
		ports := []*Port{src.NIC}
		for _, sw := range sws {
			ports = append(ports, sw.Ports[1])
		}
		for _, p := range ports {
			// Rates of the form 1e9/m keep tx = size*8*m ns exact.
			p.SetRate(1e9 / int64(1+rng.Intn(4)))
		}
		frames := 1 + rng.Intn(40)
		sends := make([]sim.Time, frames)
		sizes := make([]int32, frames)
		at := sim.Time(0)
		for i := range sends {
			// Odd-ns gaps and odd sizes make coinciding events rare, and
			// with one source through FIFO queues a tie could not move a
			// departure anyway.
			at += sim.Time(1 + 2*rng.Intn(30000))
			sends[i] = at
			sizes[i] = int32(HeaderSize + 2*rng.Intn(700) + 1)
		}
		// Closed form, hop by hop.
		want := append([]sim.Time(nil), sends...)
		for _, p := range ports {
			var dep sim.Time
			for i := range want {
				tx := sim.Time(int64(sizes[i]) * 8 * 1e9 / p.Rate())
				dep = max(want[i], dep) + tx
				want[i] = dep + cfg.LinkDelay
			}
		}
		got := make([]sim.Time, 0, frames)
		dst.Deliver = func(p *Packet) {
			if int(p.Seq) != len(got) {
				t.Fatalf("trial %d: frame %d arrived out of order", trial, p.Seq)
			}
			got = append(got, n.Now())
		}
		for i := range sends {
			i := i
			n.Eng.At(sends[i], func() {
				src.Send(&Packet{Kind: KindData, Size: sizes[i], Src: src.ID, Dst: dst.ID, Group: -1, Seq: int64(i)})
			})
		}
		n.Eng.Run()
		if len(got) != frames {
			t.Fatalf("trial %d: delivered %d/%d frames", trial, len(got), frames)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d (%d hops): frame %d arrived at %v, closed form %v", trial, len(ports), i, got[i], want[i])
			}
		}
	}
}

// TestIdleLineCostsOneEventPerHop: a single frame through an idle
// two-link path is two deliveries and nothing else; a second frame
// sent while the first serializes adds one txDone at the first port.
func TestIdleLineCostsOneEventPerHop(t *testing.T) {
	n, a, b, _ := twoHosts(DefaultConfig())
	b.Deliver = func(p *Packet) {}
	a.Send(&Packet{Kind: KindData, Size: DataSize, Src: 0, Dst: 1, Group: -1})
	n.Eng.Run()
	if got := n.Eng.Processed(); got != 2 {
		t.Fatalf("one frame over two idle links cost %d events, want 2", got)
	}
	a.Send(&Packet{Kind: KindData, Size: DataSize, Src: 0, Dst: 1, Group: -1})
	a.Send(&Packet{Kind: KindData, Size: DataSize, Src: 0, Dst: 1, Group: -1})
	n.Eng.Run()
	// 4 deliveries + 1 txDone at the NIC; the second frame reaches the
	// switch exactly when its egress frees, so no txDone there.
	if got := n.Eng.Processed() - 2; got != 5 {
		t.Fatalf("two back-to-back frames cost %d events, want 5", got)
	}
}

// TestHeaderOvertakesWaitingDataWhileLineBusy: with one data frame on
// the wire and another waiting, a header that arrives leaves before the
// waiting data frame — the next departure is chosen when the line
// frees, not when the waiting frame arrived.
func TestHeaderOvertakesWaitingDataWhileLineBusy(t *testing.T) {
	cfg := DefaultConfig()
	n, srcs, recv, sw := star(cfg, 3)
	var order []Kind
	recv.Deliver = func(p *Packet) { order = append(order, p.Kind) }
	// Both data frames reach the switch at 22 µs: one starts on the
	// receiver port (busy until 34 µs), the other waits.
	srcs[0].Send(&Packet{Kind: KindData, Size: DataSize, Src: srcs[0].ID, Dst: recv.ID, Group: -1})
	srcs[1].Send(&Packet{Kind: KindData, Size: DataSize, Src: srcs[1].ID, Dst: recv.ID, Group: -1})
	// The pull reaches the switch at 25.512 µs, mid-serialization.
	n.Eng.At(15*time.Microsecond, func() {
		srcs[2].Send(&Packet{Kind: KindPull, Size: HeaderSize, Src: srcs[2].ID, Dst: recv.ID, Group: -1})
	})
	n.Eng.RunUntil(30 * time.Microsecond)
	if got := sw.Ports[0].QueueLen(); got != 2 {
		t.Fatalf("switch egress holds %d frames mid-serialization, want 2 (data + pull)", got)
	}
	n.Eng.Run()
	want := []Kind{KindData, KindPull, KindData}
	if len(order) != len(want) {
		t.Fatalf("delivered %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("delivery order %v, want %v", order, want)
		}
	}
}

// TestDownAtBusyUntilBoundary: going down one nanosecond before the
// frame's serialization ends cuts it; going down exactly when it ends
// does not (the frame is already propagating).
func TestDownAtBusyUntilBoundary(t *testing.T) {
	const busyUntil = 12 * time.Microsecond // 1500 B at 1 Gbps
	for _, tc := range []struct {
		at        sim.Time
		delivered int
	}{
		{busyUntil - 1, 0},
		{busyUntil, 1},
	} {
		n, a, b, _ := twoHosts(DefaultConfig())
		delivered := 0
		b.Deliver = func(p *Packet) { delivered++ }
		a.Send(&Packet{Kind: KindData, Size: DataSize, Src: 0, Dst: 1, Group: -1})
		n.Eng.At(tc.at, func() { a.NIC.SetUp(false) })
		n.Eng.Run()
		if delivered != tc.delivered {
			t.Fatalf("down at %v: delivered %d, want %d", tc.at, delivered, tc.delivered)
		}
		if want := int64(1 - tc.delivered); a.NIC.Lost != want {
			t.Fatalf("down at %v: Lost = %d, want %d", tc.at, a.NIC.Lost, want)
		}
		if want := int64(tc.delivered); a.NIC.TxPackets != want {
			t.Fatalf("down at %v: TxPackets = %d, want %d", tc.at, a.NIC.TxPackets, want)
		}
	}
}

// TestLossyLinkSameSeedSameDrops: the link-loss stream is drawn at a
// deterministic point, so two runs with one seed lose the same frames
// and a different seed loses different ones.
func TestLossyLinkSameSeedSameDrops(t *testing.T) {
	run := func(seed int64) []int64 {
		cfg := DefaultConfig()
		cfg.Seed = seed
		n, srcs, recv, sw := star(cfg, 3)
		sw.Ports[0].SetLossRate(0.3)
		var got []int64
		recv.Deliver = func(p *Packet) { got = append(got, p.Seq) }
		for i := 0; i < 60; i++ {
			s := srcs[i%len(srcs)]
			s.Send(&Packet{Kind: KindPull, Size: HeaderSize, Src: s.ID, Dst: recv.ID, Group: -1, Seq: int64(i)})
		}
		n.Eng.Run()
		return got
	}
	a, b := run(3), run(3)
	if len(a) == 0 || len(a) == 60 {
		t.Fatalf("loss rate 0.3 delivered %d/60", len(a))
	}
	if len(a) != len(b) {
		t.Fatalf("same seed delivered %d then %d frames", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at delivery %d: seq %d vs %d", i, a[i], b[i])
		}
	}
	c := run(4)
	same := len(c) == len(a)
	for i := 0; same && i < len(a); i++ {
		same = a[i] == c[i]
	}
	if same {
		t.Fatal("a different seed lost exactly the same frames")
	}
}
