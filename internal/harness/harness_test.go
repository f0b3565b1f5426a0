package harness

import (
	"testing"

	"polyraptor/internal/stats"
)

// tinyScale keeps harness unit tests fast; shape assertions are loose
// here and tight in the benches/EXPERIMENTS.md.
func tinyScale() Scale {
	return Scale{FatTreeK: 4, Sessions: 60, Bytes: 256 << 10, LoadFactor: 0.3, Seed: 1}
}

func TestRunFig1RQMulticastProducesForegroundGoodputs(t *testing.T) {
	g := RunFig1RQ(tinyScale(), PatternMulticast, 3)
	// ~80% of 60 sessions are foreground.
	if len(g) < 35 || len(g) > 60 {
		t.Fatalf("foreground sessions = %d", len(g))
	}
	for i, v := range g {
		if v <= 0 || v > 1.0 {
			t.Fatalf("goodput[%d] = %v out of (0,1] Gbps", i, v)
		}
		if i > 0 && v > g[i-1] {
			t.Fatal("series not ranked descending")
		}
	}
	// In this deliberately tiny 16-host fabric, 3-replica delivery
	// inflates effective downlink load to ~0.8, so even the best
	// session contends; near-line-rate tops only appear at larger
	// scale (see the benches and EXPERIMENTS.md).
	if g[0] < 0.4 {
		t.Fatalf("best multicast session only %.3f Gbps", g[0])
	}
}

func TestRunFig1TCPMulticastSlowerWithReplicas(t *testing.T) {
	one := RunFig1TCP(tinyScale(), PatternMulticast, 1)
	three := RunFig1TCP(tinyScale(), PatternMulticast, 3)
	m1, m3 := stats.Mean(one), stats.Mean(three)
	// Multi-unicast to 3 replicas shares the writer's uplink: mean
	// session goodput must drop clearly below the single-replica case.
	if m3 >= m1 {
		t.Fatalf("TCP 3-replica mean %.3f >= 1-replica mean %.3f", m3, m1)
	}
	if m3 > 0.5 {
		t.Fatalf("TCP 3-replica mean %.3f suspiciously high (uplink is shared 3 ways)", m3)
	}
}

func TestRQMulticastBeatsTCPMultiUnicast(t *testing.T) {
	// The paper's headline for Fig 1a: with 3 replicas, Polyraptor
	// multicast sustains much higher session goodput than TCP
	// multi-unicast.
	rq := RunFig1RQ(tinyScale(), PatternMulticast, 3)
	tcp := RunFig1TCP(tinyScale(), PatternMulticast, 3)
	if stats.Mean(rq) < 1.5*stats.Mean(tcp) {
		t.Fatalf("RQ mean %.3f not clearly above TCP mean %.3f", stats.Mean(rq), stats.Mean(tcp))
	}
}

func TestRunFig1MultiSource(t *testing.T) {
	rq := RunFig1RQ(tinyScale(), PatternMultiSource, 3)
	if len(rq) == 0 {
		t.Fatal("no multi-source completions")
	}
	if rq[0] < 0.6 {
		t.Fatalf("best multi-source session only %.3f Gbps", rq[0])
	}
	tcp := RunFig1TCP(tinyScale(), PatternMultiSource, 3)
	if len(tcp) == 0 {
		t.Fatal("no TCP multi-source completions")
	}
}

func TestFigure1aShape(t *testing.T) {
	series := Figure1a(tinyScale(), 20)
	if len(series) != 4 {
		t.Fatalf("series = %d, want 4", len(series))
	}
	labels := map[string]bool{}
	for _, s := range series {
		labels[s.Label] = true
		if len(s.X) != len(s.Y) {
			t.Fatalf("%s: x/y length mismatch", s.Label)
		}
		if len(s.Y) > 20 {
			t.Fatalf("%s: not downsampled (%d points)", s.Label, len(s.Y))
		}
	}
	for _, want := range []string{"1 Replica RQ", "3 Replicas RQ", "1 Replica TCP", "3 Replicas TCP"} {
		if !labels[want] {
			t.Fatalf("missing series %q (have %v)", want, labels)
		}
	}
}

func TestFigure1cShapeAndContrast(t *testing.T) {
	opt := IncastOptions{
		FatTreeK:       4,
		SenderCounts:   []int{2, 8},
		BytesPerSender: []int64{70 << 10},
		Repetitions:    2,
		Seed:           1,
		Trimming:       true,
	}
	series := Figure1c(opt)
	if len(series) != 2 {
		t.Fatalf("series = %d, want 2 (RQ, TCP at one size)", len(series))
	}
	var rq, tcp FigureSeries
	for _, s := range series {
		switch s.Label {
		case "RQ 70KB":
			rq = s
		case "TCP 70KB":
			tcp = s
		default:
			t.Fatalf("unexpected label %q", s.Label)
		}
	}
	if len(rq.Y) != 2 || len(rq.YErr) != 2 {
		t.Fatalf("RQ series malformed: %+v", rq)
	}
	// At 8 synchronized senders, Polyraptor must hold goodput well
	// above collapsing TCP.
	if rq.Y[1] < tcp.Y[1] {
		t.Fatalf("incast: RQ %.3f below TCP %.3f at 8 senders", rq.Y[1], tcp.Y[1])
	}
	if rq.Y[1] < 0.5 {
		t.Fatalf("RQ incast goodput %.3f collapsed", rq.Y[1])
	}
}

func TestAblationNoTrim(t *testing.T) {
	res := RunAblationNoTrim(4, 8, 70<<10, 1)
	if res.WithTrim <= res.WithoutTrim {
		t.Fatalf("trimming did not help incast: with=%.3f without=%.3f",
			res.WithTrim, res.WithoutTrim)
	}
}

func TestAblationInitialWindow(t *testing.T) {
	res := RunAblationInitialWindow(4, 40<<10, 10, 1)
	if res.MeanFCTWindow >= res.MeanFCTNoWindow {
		t.Fatalf("initial window did not reduce short-flow FCT: %v vs %v",
			res.MeanFCTWindow, res.MeanFCTNoWindow)
	}
}

func TestAblationPartitioning(t *testing.T) {
	res := RunAblationPartitioning(4, 3, 6, 512<<10, 1)
	if res.GoodputPartitioned <= 0 || res.GoodputRandom <= 0 {
		t.Fatalf("ablation produced zero goodput: %+v", res)
	}
	// Random seeding can only waste capacity (duplicates), never gain.
	if res.GoodputRandom > res.GoodputPartitioned*1.05 {
		t.Fatalf("random ESI beat partitioning: %+v", res)
	}
}

func TestAblationDecodeLatency(t *testing.T) {
	res := RunAblationDecodeLatency(4, 512<<10, 2000, 5, 1)
	if res.GoodputWithLatency >= res.GoodputNoLatency {
		t.Fatalf("decode latency had no cost: %+v", res)
	}
}

func TestScaleLambdaPreservesLoad(t *testing.T) {
	paper := PaperScale()
	l := paper.lambda(1e9, 1)
	// Paper parameters at 1 replica: 0.33 * 250 hosts * 1 Gbps /
	// (8*4MB) ~ 2460/s — close to the quoted 2560.
	if l < 2000 || l > 3000 {
		t.Fatalf("paper-scale lambda = %.0f, want ~2500", l)
	}
	bench := BenchScale()
	lb := bench.lambda(1e9, 1)
	perHostPaper := l * float64(paper.Bytes) * 8 / (250 * 1e9)
	perHostBench := lb * float64(bench.Bytes) * 8 / (16 * 1e9)
	if diff := perHostPaper - perHostBench; diff > 0.01 || diff < -0.01 {
		t.Fatalf("per-host load differs: paper %.3f vs bench %.3f", perHostPaper, perHostBench)
	}
	// Delivered-load normalisation: 3-replica multicast arrivals slow
	// down by the replication multiplier.
	c3 := paper.workloadConfig(1e9, PatternMulticast, 3)
	c1 := paper.workloadConfig(1e9, PatternMulticast, 1)
	if ratio := c1.Lambda / c3.Lambda; ratio < 2.5 || ratio > 2.7 {
		t.Fatalf("3-replica lambda ratio = %.2f, want ~2.6", ratio)
	}
	// Multi-source delivers one copy regardless of sender count.
	cm := paper.workloadConfig(1e9, PatternMultiSource, 3)
	if cm.Lambda != c1.Lambda {
		t.Fatal("multi-source lambda must not scale with senders")
	}
}

// TestFig1aEventBudget guards the transmit path's cost: an idle port
// schedules only a frame's delivery, so BenchScale Fig1a must stay
// under 1.5 engine events per frame-hop (every port enqueue, host NICs
// included). Two events per hop, or an event blowup, fails here. The
// counts are deterministic, so the bound cannot flake.
func TestFig1aEventBudget(t *testing.T) {
	_, ft := runFig1RQ(BenchScale(), PatternMulticast, 3)
	hops := ft.Net.QueueTotals().Enqueued
	for _, h := range ft.Net.Hosts {
		hops += h.NIC.QueueStats().Enqueued
	}
	events := ft.Net.Eng.Processed()
	if hops == 0 {
		t.Fatal("no frame-hops recorded")
	}
	perHop := float64(events) / float64(hops)
	t.Logf("%d events / %d frame-hops = %.3f", events, hops, perHop)
	if perHop > 1.5 {
		t.Fatalf("%.3f engine events per frame-hop, budget 1.5", perHop)
	}
}
