// Package harness runs the paper's experiments end to end: it builds
// the fabric, schedules the workload, attaches the transport under
// test (Polyraptor or the TCP baseline), and reduces completions to
// the series each figure plots. One entry point exists per figure
// plus the ablations listed in DESIGN.md.
package harness

import (
	"fmt"

	"polyraptor/internal/metrics"
	"polyraptor/internal/netsim"
	"polyraptor/internal/polyraptor"
	"polyraptor/internal/sim"
	"polyraptor/internal/stats"
	"polyraptor/internal/store"
	"polyraptor/internal/sweep"
	"polyraptor/internal/tcpsim"
	"polyraptor/internal/telemetry"
	"polyraptor/internal/topology"
	"polyraptor/internal/workload"
)

// Scale selects the experiment size. The paper's full scale (k=10,
// 10,000 x 4 MB sessions) is minutes of CPU; the scaled defaults
// preserve per-host offered load and therefore the figures' shape.
type Scale struct {
	// FatTreeK is the fat-tree arity (paper: 10 -> 250 hosts).
	FatTreeK int
	// Sessions is the total session count (paper: 10,000).
	Sessions int
	// Bytes is the foreground object size (paper: 4 MB).
	Bytes int64
	// LoadFactor is the target per-host offered load as a fraction of
	// link rate; lambda is derived from it so scaled-down runs keep the
	// paper's utilisation (~0.33 at paper parameters).
	LoadFactor float64
	// Seed is the base seed.
	Seed int64
}

// PaperScale reproduces the figure captions exactly.
func PaperScale() Scale {
	return Scale{FatTreeK: 10, Sessions: 10000, Bytes: 4 << 20, LoadFactor: 0.33, Seed: 1}
}

// BenchScale is small enough for go test -bench while preserving load
// and shape.
func BenchScale() Scale {
	return Scale{FatTreeK: 4, Sessions: 150, Bytes: 512 << 10, LoadFactor: 0.33, Seed: 1}
}

// lambda converts the load factor to a Poisson arrival rate.
// deliveredMult is the average bytes delivered to host downlinks per
// session byte: replicating a session to R receivers over multicast
// delivers R copies, so arrival rate must scale down by the mix-
// weighted multiplier to keep *delivered* load (and hence queueing
// behaviour) constant across replica counts. At 1 replica and paper
// parameters this evaluates to λ ≈ 2500/s — the paper's quoted 2560.
// The paper reuses one λ for both replica counts, which at 3 replicas
// puts offered downlink load above capacity; we normalise instead and
// record the deviation in EXPERIMENTS.md.
func (s Scale) lambda(linkRate int64, deliveredMult float64) float64 {
	hosts := float64(s.FatTreeK * s.FatTreeK * s.FatTreeK / 4)
	return s.LoadFactor * hosts * float64(linkRate) / (8 * float64(s.Bytes) * deliveredMult)
}

func (s Scale) workloadConfig(linkRate int64, pattern Pattern, replicas int) workload.Config {
	mult := 1.0
	if pattern == PatternMulticast {
		// 80% of sessions deliver `replicas` copies; 20% background
		// delivers one.
		mult = 0.8*float64(replicas) + 0.2
	}
	return workload.Config{
		Sessions:        s.Sessions,
		Lambda:          s.lambda(linkRate, mult),
		Bytes:           s.Bytes,
		BackgroundBytes: s.Bytes,
		BackgroundFrac:  0.20,
		Replicas:        replicas,
		Seed:            s.Seed,
	}
}

// FigureSeries is one labelled curve of a figure.
type FigureSeries struct {
	Label string
	// X values (session rank for 1a/1b; sender count for 1c).
	X []float64
	// Y values (goodput in Gbps).
	Y []float64
	// YErr holds 95% CI half-widths (Figure 1c), nil otherwise.
	YErr []float64
}

// Pattern is the foreground transfer pattern of Figures 1a/1b.
type Pattern int

const (
	// PatternMulticast is Figure 1a: client replicates one object to
	// R servers (RQ: multicast; TCP: multi-unicast).
	PatternMulticast Pattern = iota
	// PatternMultiSource is Figure 1b: client fetches one object
	// available at R servers (RQ: multi-source; TCP: uncoordinated
	// 1/R partial fetches).
	PatternMultiSource
)

// RunFig1RQ runs the Polyraptor side of Figure 1a or 1b and returns
// per-foreground-session goodputs ranked descending.
func RunFig1RQ(sc Scale, pattern Pattern, replicas int) []float64 {
	goodputs, _ := runFig1RQ(sc, pattern, replicas)
	return goodputs
}

// runFig1RQ is RunFig1RQ that also returns the drained fabric, whose
// engine and queue counters the event-budget test reads.
func runFig1RQ(sc Scale, pattern Pattern, replicas int) ([]float64, *topology.FatTree) {
	ncfg := netsim.DefaultConfig()
	ncfg.Seed = sc.Seed
	ft, err := topology.NewFatTree(sc.FatTreeK, ncfg)
	if err != nil {
		panic(err)
	}
	sys := polyraptor.NewSystem(ft.Net, polyraptor.DefaultConfig(), sc.Seed)
	sys.PruneGroup = ft.PruneMulticastLeaf
	sessions := workload.Generate(sc.workloadConfig(ncfg.LinkRate, pattern, replicas), ft)

	goodputs := make([]float64, 0, len(sessions))
	for i := range sessions {
		s := sessions[i]
		ft.Net.Eng.At(s.Start, func() {
			if s.Kind == workload.Background {
				sys.StartUnicast(s.Client, s.Peers[0], s.Bytes, nil)
				return
			}
			switch {
			case pattern == PatternMultiSource:
				start := ft.Net.Now()
				sys.StartMultiSource(s.Peers, s.Client, s.Bytes, func(ev polyraptor.CompletionEvent) {
					goodputs = append(goodputs, gbps(s.Bytes, ev.End-start))
				})
			case replicas == 1:
				start := ft.Net.Now()
				sys.StartUnicast(s.Client, s.Peers[0], s.Bytes, func(ev polyraptor.CompletionEvent) {
					goodputs = append(goodputs, gbps(s.Bytes, ev.End-start))
				})
			default:
				g := ft.InstallMulticastGroup(s.Client, s.Peers)
				start := ft.Net.Now()
				remaining := len(s.Peers)
				var last sim.Time
				sys.StartMulticast(s.Client, s.Peers, g, s.Bytes, func(ev polyraptor.CompletionEvent) {
					if ev.End > last {
						last = ev.End
					}
					remaining--
					if remaining == 0 {
						ft.RemoveMulticastGroup(g)
						goodputs = append(goodputs, gbps(s.Bytes, last-start))
					}
				})
			}
		})
	}
	ft.Net.Eng.Run()
	return stats.RankSeries(goodputs), ft
}

// RunFig1TCP runs the TCP side of Figure 1a or 1b: multi-unicast for
// the multicast pattern, uncoordinated 1/R partial fetches for the
// multi-source pattern. Returns ranked per-session goodputs.
func RunFig1TCP(sc Scale, pattern Pattern, replicas int) []float64 {
	return runFig1TCPWith(sc, pattern, replicas, tcpsim.DefaultConfig(), 0)
}

// runFig1TCPWith is RunFig1TCP parameterised over the congestion
// control and switch ECN threshold, so the DCTCP baseline reuses the
// same workload and reduction.
func runFig1TCPWith(sc Scale, pattern Pattern, replicas int, tcfg tcpsim.Config, ecn int) []float64 {
	ncfg := netsim.DefaultConfig()
	ncfg.Seed = sc.Seed
	ncfg.Trimming = false // TCP runs on classic drop-tail switches
	if ecn > 0 {
		ncfg.ECNThreshold = ecn
	}
	ft, err := topology.NewFatTree(sc.FatTreeK, ncfg)
	if err != nil {
		panic(err)
	}
	sys := tcpsim.NewSystem(ft.Net, tcfg)
	sessions := workload.Generate(sc.workloadConfig(ncfg.LinkRate, pattern, replicas), ft)

	goodputs := make([]float64, 0, len(sessions))
	for i := range sessions {
		s := sessions[i]
		ft.Net.Eng.At(s.Start, func() {
			if s.Kind == workload.Background {
				sys.StartFlow(s.Client, s.Peers[0], s.Bytes, nil)
				return
			}
			start := ft.Net.Now()
			remaining := len(s.Peers)
			var last sim.Time
			perFlowDone := func(r tcpsim.FlowResult) {
				if r.End > last {
					last = r.End
				}
				remaining--
				if remaining == 0 {
					goodputs = append(goodputs, gbps(s.Bytes, last-start))
				}
			}
			for fi, peer := range s.Peers {
				switch pattern {
				case PatternMulticast:
					// Multi-unicast: the client writes the full object
					// to every replica.
					sys.StartFlow(s.Client, peer, s.Bytes, perFlowDone)
				case PatternMultiSource:
					// Each replica returns a distinct 1/R share,
					// without coordination (paper §3).
					share := s.Bytes / int64(len(s.Peers))
					if fi == len(s.Peers)-1 {
						share = s.Bytes - share*int64(len(s.Peers)-1)
					}
					sys.StartFlow(peer, s.Client, share, perFlowDone)
				}
			}
		})
	}
	ft.Net.Eng.Run()
	return stats.RankSeries(goodputs)
}

func gbps(bytes int64, d sim.Time) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes*8) / d.Seconds() / 1e9
}

// Figure1a returns the four curves of Figure 1a (1/3 replicas x
// RQ/TCP), each ranked descending and downsampled to at most maxPoints
// points.
func Figure1a(sc Scale, maxPoints int) []FigureSeries {
	return figure1(sc, PatternMulticast, maxPoints, "Replica")
}

// Figure1b returns the four curves of Figure 1b (1/3 senders x
// RQ/TCP).
func Figure1b(sc Scale, maxPoints int) []FigureSeries {
	return figure1(sc, PatternMultiSource, maxPoints, "Sender")
}

func figure1(sc Scale, pattern Pattern, maxPoints int, noun string) []FigureSeries {
	// The four curves are independent simulations; run them on the
	// sweep worker pool, each writing its pre-assigned slot so the
	// series order (and content) is identical to the serial loop.
	type arm struct {
		replicas int
		proto    string
	}
	arms := []arm{{1, "RQ"}, {1, "TCP"}, {3, "RQ"}, {3, "TCP"}}
	out := make([]FigureSeries, len(arms))
	sweep.ForEach(len(arms), 0, func(i int) {
		a := arms[i]
		plural := ""
		if a.replicas > 1 {
			plural = "s"
		}
		var ys []float64
		if a.proto == "RQ" {
			ys = RunFig1RQ(sc, pattern, a.replicas)
		} else {
			ys = RunFig1TCP(sc, pattern, a.replicas)
		}
		ys = stats.Downsample(ys, maxPoints)
		out[i] = FigureSeries{
			Label: fmt.Sprintf("%d %s%s %s", a.replicas, noun, plural, a.proto),
			X:     ranksFor(len(ys), sc.Sessions),
			Y:     ys,
		}
	})
	return out
}

func ranksFor(n, total int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		if n > 1 {
			xs[i] = float64(i) * float64(total-1) / float64(n-1)
		}
	}
	return xs
}

// IncastOptions parametrises Figure 1c.
type IncastOptions struct {
	// FatTreeK is the fabric arity.
	FatTreeK int
	// SenderCounts is the x-axis (paper: up to 70).
	SenderCounts []int
	// BytesPerSender are the block-size series (paper: 256 KB, 70 KB).
	BytesPerSender []int64
	// Repetitions is the number of seeds (paper: 5). Each repetition
	// runs under its own SplitMix-derived sub-seed (sweep.SubSeed), so
	// repetition streams are statistically independent.
	Repetitions int
	// Seed is the base seed.
	Seed int64
	// Trimming can be set false for ablation A1 (Polyraptor without
	// packet trimming).
	Trimming bool
	// Parallelism caps concurrent (point, repetition) runs in
	// Figure1c; <= 0 means GOMAXPROCS. Results are byte-identical at
	// any setting.
	Parallelism int
}

// DefaultIncastOptions mirrors Figure 1c at a fabric size that still
// fits the largest sender count.
func DefaultIncastOptions() IncastOptions {
	return IncastOptions{
		FatTreeK:       10,
		SenderCounts:   []int{2, 5, 10, 20, 30, 40, 50, 60, 70},
		BytesPerSender: []int64{256 << 10, 70 << 10},
		Repetitions:    5,
		Seed:           1,
		Trimming:       true,
	}
}

// BenchIncastOptions is sized for go test -bench.
func BenchIncastOptions() IncastOptions {
	return IncastOptions{
		FatTreeK:       4,
		SenderCounts:   []int{2, 4, 8, 12},
		BytesPerSender: []int64{256 << 10, 70 << 10},
		Repetitions:    3,
		Seed:           1,
		Trimming:       true,
	}
}

// RunIncastRQ measures Polyraptor aggregate goodput for one
// (senders, bytes, seed) point: n synchronized senders each transfer
// their own block to one client; goodput is total bytes over makespan.
func RunIncastRQ(opt IncastOptions, senders int, bytes int64, seed int64) float64 {
	g, _ := RunIncastTraced(opt, store.BackendPolyraptor, senders, bytes, seed, nil)
	return g
}

// RunIncastTCP measures the TCP baseline for one incast point.
func RunIncastTCP(opt IncastOptions, senders int, bytes int64, seed int64) float64 {
	g, _ := RunIncastTraced(opt, store.BackendTCP, senders, bytes, seed, nil)
	return g
}

// RunIncastDCTCP measures the DCTCP baseline (extension E3) for one
// incast point: ECN-marking drop-tail switches (K=20) and DCTCP
// congestion control.
func RunIncastDCTCP(opt IncastOptions, senders int, bytes int64, seed int64) float64 {
	g, _ := RunIncastTraced(opt, store.BackendDCTCP, senders, bytes, seed, nil)
	return g
}

// RunIncastTraced runs one incast point under the named backend with
// an optional PolyScope trace attached (nil topt reproduces the
// untraced entry points exactly — they all delegate here). Polyraptor
// runs on trimming switches per opt.Trimming; TCP on classic
// drop-tail; DCTCP on ECN-marking drop-tail (K=20).
func RunIncastTraced(opt IncastOptions, backend store.BackendKind, senders int, bytes int64, seed int64, topt *TraceOptions) (float64, *telemetry.Trace) {
	return runIncast(opt, backend, senders, bytes, seed, topt, meter{})
}

// RunIncastMetered is RunIncastTraced with PolyMeter instruments
// attached: per-sender FCT/goodput histograms, fabric queue depth,
// Polyraptor stall durations, and SLO attainment counters land in reg
// under (incast, backend) labels. A nil reg reproduces RunIncastTraced
// exactly.
func RunIncastMetered(opt IncastOptions, backend store.BackendKind, senders int, bytes int64, seed int64, topt *TraceOptions, reg *metrics.Registry, slo metrics.SLO) (float64, *telemetry.Trace) {
	return runIncast(opt, backend, senders, bytes, seed, topt, newMeter(reg, "incast", backend, slo))
}

func runIncast(opt IncastOptions, backend store.BackendKind, senders int, bytes int64, seed int64, topt *TraceOptions, mt meter) (float64, *telemetry.Trace) {
	ncfg := netsim.DefaultConfig()
	ncfg.Seed = seed
	switch backend {
	case store.BackendPolyraptor:
		ncfg.Trimming = opt.Trimming
	case store.BackendDCTCP:
		ncfg.Trimming = false
		ncfg.ECNThreshold = 20
	default:
		ncfg.Trimming = false
	}
	ft, err := topology.NewFatTree(opt.FatTreeK, ncfg)
	if err != nil {
		panic(err)
	}
	tr := newTrace(ft, topt, "incast", backend, seed)
	mt.fabric(ft)
	ic := workload.GenerateIncast(workload.IncastConfig{Senders: senders, BytesPerSender: bytes, Seed: seed}, ft)
	mt.offered(senders)
	var last sim.Time
	done := 0
	if backend == store.BackendPolyraptor {
		sys := polyraptor.NewSystem(ft.Net, polyraptor.DefaultConfig(), seed)
		mt.stallRQ(sys)
		for _, s := range ic.Senders {
			sys.StartUnicast(s, ic.Client, ic.Bytes, func(ev polyraptor.CompletionEvent) {
				fct := ev.End.Seconds()
				mt.flow(fct, perFlowGbps(ev.Bytes, fct))
				if ev.End > last {
					last = ev.End
				}
				done++
			})
		}
		startTrace(tr, ft, func() float64 { send, recv := sys.OpenSessions(); return float64(send + recv) })
		ft.Net.Eng.Run()
		if done != senders {
			panic(fmt.Sprintf("harness: incast RQ finished %d/%d sessions", done, senders))
		}
	} else {
		var tcfg tcpsim.Config
		name := "TCP"
		if backend == store.BackendDCTCP {
			tcfg, name = tcpsim.DCTCPConfig(), "DCTCP"
		} else {
			tcfg = tcpsim.DefaultConfig()
		}
		sys := tcpsim.NewSystem(ft.Net, tcfg)
		for _, s := range ic.Senders {
			sys.StartFlow(s, ic.Client, ic.Bytes, func(r tcpsim.FlowResult) {
				fct := (r.End - r.Start).Seconds()
				mt.flow(fct, perFlowGbps(ic.Bytes, fct))
				if r.End > last {
					last = r.End
				}
				done++
			})
		}
		startTrace(tr, ft, func() float64 { return float64(sys.OpenFlows()) })
		ft.Net.Eng.Run()
		if done != senders {
			panic(fmt.Sprintf("harness: incast %s finished %d/%d flows", name, done, senders))
		}
	}
	finishTrace(tr, ft.Net.Now())
	return gbps(bytes*int64(senders), last), tr
}

// Figure1c returns mean goodput with 95% CI error bars versus sender
// count, one series per (protocol, block size) — the paper's Figure 1c.
// Every (block size, protocol, sender count) point is one sweep cell
// run over Repetitions derived sub-seeds on the worker pool; the same
// repetition uses the same sub-seed for every point, so protocols are
// compared on paired workload draws.
func Figure1c(opt IncastOptions) []FigureSeries {
	protos := []string{"RQ", "TCP"}
	var cells []sweep.Cell
	for _, bytes := range opt.BytesPerSender {
		for _, proto := range protos {
			for _, n := range opt.SenderCounts {
				bytes, proto, n := bytes, proto, n
				cells = append(cells, sweep.Cell{
					Scenario: "incast",
					Backend:  proto,
					Runner: sweep.RunnerFunc(func(seed int64) (sweep.Metrics, error) {
						var g float64
						if proto == "RQ" {
							g = RunIncastRQ(opt, n, bytes, seed)
						} else {
							g = RunIncastTCP(opt, n, bytes, seed)
						}
						return sweep.Metrics{"goodput_gbps": g}, nil
					}),
				})
			}
		}
	}
	res, err := sweep.Matrix{
		Cells:       cells,
		Seeds:       opt.Repetitions,
		BaseSeed:    opt.Seed,
		Parallelism: opt.Parallelism,
	}.Run()
	if err != nil {
		panic(fmt.Sprintf("harness: incast sweep: %v", err))
	}

	var out []FigureSeries
	i := 0
	for _, bytes := range opt.BytesPerSender {
		for _, proto := range protos {
			se := FigureSeries{Label: fmt.Sprintf("%s %dKB", proto, bytes>>10)}
			for _, n := range opt.SenderCounts {
				a, ok := res.Cells[i].Metric("goodput_gbps")
				if !ok {
					panic(fmt.Sprintf("harness: incast point %s n=%d failed: %v",
						proto, n, res.Cells[i].Errors))
				}
				se.X = append(se.X, float64(n))
				se.Y = append(se.Y, a.Mean)
				se.YErr = append(se.YErr, a.CI95)
				i++
			}
			out = append(out, se)
		}
	}
	return out
}
