package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"polyraptor/internal/harness"
	"polyraptor/internal/netsim"
	"polyraptor/internal/polyraptor"
	"polyraptor/internal/sim"
	"polyraptor/internal/stats"
	"polyraptor/internal/sweep"
	"polyraptor/internal/topology"
	"polyraptor/internal/workload"
)

// fig1a-multicast: the Figure 1a shape at bench scale (k=4 fat tree,
// 150 Poisson sessions at load 0.33, 80% 3-replica multicast PUTs of
// 512 KB plus 20% background unicast, Polyraptor on trimming switches,
// no observers). Each cycle runs fig1aSubSeeds workload instances
// derived from the seed; cycles repeat the same instances, so every
// repeat must reproduce the first exactly.
const (
	fig1aSubSeeds = 8
	fig1aReplicas = 3
)

var fig1aWorkload = benchWorkload{
	name: "fig1a-multicast",
	sizes: func() map[string]any {
		sc := harness.BenchScale()
		return map[string]any{
			"k": sc.FatTreeK, "sessions": sc.Sessions, "bytes": sc.Bytes, "load": sc.LoadFactor,
			"replicas": fig1aReplicas, "instances_per_cycle": fig1aSubSeeds,
		}
	},
	timed:  fig1aTimed,
	traced: fig1aTraced,
}

func fig1aScale(seed int64) harness.Scale {
	sc := harness.BenchScale()
	sc.Seed = seed
	return sc
}

// fig1aConfig is the workload configuration harness.RunFig1RQ derives
// for the multicast pattern: arrival rate normalised so that delivered
// downlink load stays at the load factor (80% of sessions deliver R
// copies, 20% one).
func fig1aConfig(sc harness.Scale, linkRate int64) workload.Config {
	mult := 0.8*float64(fig1aReplicas) + 0.2
	hosts := float64(sc.FatTreeK * sc.FatTreeK * sc.FatTreeK / 4)
	return workload.Config{
		Sessions:        sc.Sessions,
		Lambda:          sc.LoadFactor * hosts * float64(linkRate) / (8 * float64(sc.Bytes) * mult),
		Bytes:           sc.Bytes,
		BackgroundBytes: sc.Bytes,
		BackgroundFrac:  0.20,
		Replicas:        fig1aReplicas,
		Seed:            sc.Seed,
	}
}

// fig1aRun is one composed Figure 1a instance.
type fig1aRun struct {
	goodputs  []float64 // ranked descending, as harness.RunFig1RQ returns them
	fcts      []float64 // foreground session completion times, seconds
	sessions  int
	fg        int // foreground sessions offered
	completed int // foreground sessions whose every replica decoded
	symbols   int // distinct symbols received, all receivers
	need      int // source symbols those receivers needed
	trims     int
	detached  int
	openEnd   int // Polyraptor sessions still open when the queue drained
	events    uint64
	queue     netsim.QueueStats // switch ports plus host NICs
	setup     time.Duration     // CPU time of fabric, transport, workload, schedule
	run       time.Duration     // the engine draining the schedule
	runCPU    time.Duration     // process CPU time while it did
	// traced runs only: engine queue depth read after every Step.
	pendingPeak int
	pendingSum  float64
}

// composeFig1a is harness.RunFig1RQ(sc, PatternMulticast, 3) rebuilt
// from the layers' public functions, so the benchmark can time set-up
// apart from the run and, when traced, drive the engine one Step at a
// time. checkFig1a holds it to RunFig1RQ bit for bit.
func composeFig1a(sc harness.Scale, tr *tracer, parent int) (fig1aRun, error) {
	var r fig1aRun
	c0 := cpuTime()
	ncfg := netsim.DefaultConfig()
	ncfg.Seed = sc.Seed
	sp := tr.begin("topology.NewFatTree", parent)
	ft, err := topology.NewFatTree(sc.FatTreeK, ncfg)
	tr.end(sp)
	if err != nil {
		return r, err
	}
	sp = tr.begin("polyraptor.NewSystem", parent)
	sys := polyraptor.NewSystem(ft.Net, polyraptor.DefaultConfig(), sc.Seed)
	sys.PruneGroup = ft.PruneMulticastLeaf
	tr.end(sp)
	sp = tr.begin("workload.Generate", parent)
	sessions := workload.Generate(fig1aConfig(sc, ncfg.LinkRate), ft)
	tr.end(sp)

	payload := int64(sys.Cfg.SymbolPayload)
	r.sessions = len(sessions)
	goodputs := make([]float64, 0, len(sessions))
	for i := range sessions {
		s := sessions[i]
		if s.Kind == workload.Background {
			ft.Net.Eng.At(s.Start, func() { sys.StartUnicast(s.Client, s.Peers[0], s.Bytes, nil) })
			continue
		}
		r.fg++
		ft.Net.Eng.At(s.Start, func() {
			g := ft.InstallMulticastGroup(s.Client, s.Peers)
			start := ft.Net.Now()
			remaining := len(s.Peers)
			var last sim.Time
			sys.StartMulticast(s.Client, s.Peers, g, s.Bytes, func(ev polyraptor.CompletionEvent) {
				r.symbols += ev.Symbols
				r.need += int((ev.Bytes + payload - 1) / payload)
				r.trims += ev.Trims
				if ev.Detached {
					r.detached++
				}
				if ev.End > last {
					last = ev.End
				}
				remaining--
				if remaining == 0 {
					ft.RemoveMulticastGroup(g)
					goodputs = append(goodputs, gbpsOver(s.Bytes, last-start))
					r.fcts = append(r.fcts, (last - start).Seconds())
					r.completed++
				}
			})
		})
	}
	r.setup = cpuTime() - c0

	eng := ft.Net.Eng
	t1, c1 := time.Now(), cpuTime()
	sp = tr.begin("sim.Engine.Step", parent)
	if tr == nil {
		eng.Run()
	} else {
		for eng.Step() {
			p := eng.Pending()
			r.pendingSum += float64(p)
			r.pendingPeak = max(r.pendingPeak, p)
		}
	}
	tr.end(sp)
	r.run = time.Since(t1)
	r.runCPU = cpuTime() - c1

	r.events = eng.Processed()
	send, recv := sys.OpenSessions()
	r.openEnd = send + recv
	r.queue = fabricTotals(ft)
	r.goodputs = stats.RankSeries(goodputs)
	return r, nil
}

// gbpsOver is the harness's goodput reduction: object bits over the
// session's completion time.
func gbpsOver(bytes int64, d sim.Time) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes*8) / d.Seconds() / 1e9
}

// fabricTotals sums queue statistics over every switch port and host
// NIC. Enqueued is then the number of frame-hops: each frame enters
// one egress queue per hop.
func fabricTotals(ft *topology.FatTree) netsim.QueueStats {
	q := ft.Net.QueueTotals()
	for _, h := range ft.Net.Hosts {
		if h.NIC != nil {
			st := h.NIC.QueueStats()
			q.Enqueued += st.Enqueued
			q.Dropped += st.Dropped
			q.Trimmed += st.Trimmed
			q.Marked += st.Marked
		}
	}
	return q
}

// checkFig1a holds one composed instance to the program's outputs:
// every session completes, no Polyraptor session is left open, and the
// ranked goodputs equal harness.RunFig1RQ's bit for bit.
func checkFig1a(sc harness.Scale, r fig1aRun, ref []float64) error {
	if r.completed != r.fg {
		return fmt.Errorf("fig1a seed %d: %d/%d foreground sessions completed", sc.Seed, r.completed, r.fg)
	}
	if r.openEnd != 0 {
		return fmt.Errorf("fig1a seed %d: %d Polyraptor sessions open at the end", sc.Seed, r.openEnd)
	}
	if !slices.Equal(r.goodputs, ref) {
		return fmt.Errorf("fig1a seed %d: composed goodputs differ from harness.RunFig1RQ", sc.Seed)
	}
	return nil
}

// fig1aCycle runs every instance of one cycle and checks each against
// its reference (the harness's own output for that instance).
func fig1aCycle(e *env, scales []harness.Scale, refs [][]float64, parent int) ([]fig1aRun, error) {
	runs := make([]fig1aRun, len(scales))
	for i, sc := range scales {
		var r fig1aRun
		err := guarded(func() error {
			var err error
			r, err = composeFig1a(sc, e.tr, parent)
			if err != nil {
				return err
			}
			return checkFig1a(sc, r, refs[i])
		})
		if err != nil {
			return nil, err
		}
		runs[i] = r
	}
	return runs, nil
}

// fig1aRefs derives the cycle's instances from the seed and runs the
// shipped entry point once per instance for the output check.
func fig1aRefs(seed int64) ([]harness.Scale, [][]float64, error) {
	scales := make([]harness.Scale, fig1aSubSeeds)
	refs := make([][]float64, fig1aSubSeeds)
	for i := range scales {
		scales[i] = fig1aScale(sweep.SubSeed(seed, i))
		err := guarded(func() error {
			refs[i] = harness.RunFig1RQ(scales[i], harness.PatternMulticast, fig1aReplicas)
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
	}
	return scales, refs, nil
}

func fig1aTimed(e *env, rep *report) {
	scales, refs, err := fig1aRefs(e.seed)
	if err != nil {
		e.chk.record(err)
		return
	}
	var (
		setups, allocs []float64
		runTimes       = make([][]float64, len(scales)) // per instance, per cycle
		sessions       int
		deadline       = time.Now().Add(e.budget)
		ms0, ms1       runtime.MemStats
	)
	for cycle := 0; cycle < 2 || time.Now().Before(deadline); cycle++ {
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		runs, err := fig1aCycle(e, scales, refs, 0)
		runtime.ReadMemStats(&ms1)
		e.chk.record(err)
		if err != nil {
			continue
		}
		sessions = 0
		for i, r := range runs {
			setups = append(setups, r.setup.Seconds())
			runTimes[i] = append(runTimes[i], r.runCPU.Seconds())
			sessions += r.sessions
		}
		allocs = append(allocs, float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6)
		if rep.events["sim_events_per_cycle"] == 0 {
			for _, r := range runs {
				rep.events["sim_events_per_cycle"] += r.events
			}
		}
	}
	if len(allocs) == 0 {
		return
	}
	rep.events["repetitions"] = uint64(len(allocs))
	rep.events["sessions_per_cycle"] = uint64(sessions)
	rep.set("setup_s", median(setups))
	rep.set("xfers_per_cpu_s", float64(sessions)/sumMedians(runTimes))
	rep.set("alloc_mb", median(allocs))
}

func fig1aTraced(e *env, rep *report) {
	scales, refs, err := fig1aRefs(e.seed)
	if err != nil {
		e.chk.record(err)
		return
	}
	// Untraced repetitions first, for ns/event, GC cycles and the
	// tracing-overhead baseline; then traced ones under the profilers.
	plain, err := untracedCycles(e, e.budget/3, func() (time.Duration, error) {
		runs, err := fig1aCycle(e.untraced(), scales, refs, 0)
		var d time.Duration
		for _, r := range runs {
			d += r.run
		}
		return d, err
	})
	if err != nil {
		return
	}
	var (
		first  []fig1aRun
		traced []float64
	)
	prof, err := startCPUProfile()
	if err != nil {
		e.chk.record(err)
		return
	}
	deadline := time.Now().Add(e.budget - e.budget/3)
	for cycle := 0; cycle < 1 || time.Now().Before(deadline); cycle++ {
		root := e.tr.begin("fig1a.cycle", 0)
		c0 := cpuTime()
		runs, err := fig1aCycle(e, scales, refs, root)
		traced = append(traced, (cpuTime() - c0).Seconds())
		e.tr.end(root)
		e.chk.record(err)
		if err == nil && first == nil {
			first = runs
		}
	}
	cpu, err := prof.stop()
	e.chk.record(err)
	if first == nil {
		return
	}
	var (
		events, steps   uint64
		q               netsim.QueueStats
		peak            int
		pendSum         float64
		sym, need, trim int
		detached, open  int
		fcts, gbps      []float64
	)
	for _, r := range first {
		fcts = append(fcts, r.fcts...)
		gbps = append(gbps, r.goodputs...)
		events += r.events
		steps += r.events
		q.Enqueued += r.queue.Enqueued
		q.Dropped += r.queue.Dropped
		q.Trimmed += r.queue.Trimmed
		q.Marked += r.queue.Marked
		q.RouteDrops += r.queue.RouteDrops
		q.LinkDrops += r.queue.LinkDrops
		peak = max(peak, r.pendingPeak)
		pendSum += r.pendingSum
		sym += r.symbols
		need += r.need
		trim += r.trims
		detached += r.detached
		open += r.openEnd
	}
	rep.events["sim_events_per_cycle"] = events
	setSimFCT(rep, fcts, gbps)
	rep.set("sim.events", float64(events))
	rep.set("sim.ns_per_event", plain.engine*1e9/float64(events))
	rep.set("sim.pending_peak", float64(peak))
	rep.set("sim.pending_mean", pendSum/float64(steps))
	setQueueMetrics(rep, q, events)
	rep.set("topology.build_s", median(e.tr.durations("topology.NewFatTree")))
	rep.set("workload.generate_s", median(e.tr.durations("workload.Generate")))
	rep.set("polyraptor.symbols", float64(sym))
	rep.set("polyraptor.trims", float64(trim))
	rep.set("polyraptor.symbol_overhead", float64(sym)/float64(need)-1)
	rep.set("polyraptor.detached", float64(detached))
	rep.set("polyraptor.open_sessions_end", float64(open))
	finishTraced(e, rep, plain, median(traced), cpu)
}

// setQueueMetrics reports the fabric counters of a traced run.
func setQueueMetrics(rep *report, q netsim.QueueStats, events uint64) {
	rep.set("netsim.frame_hops", float64(q.Enqueued))
	if q.Enqueued > 0 {
		rep.set("netsim.events_per_hop", float64(events)/float64(q.Enqueued))
		rep.set("netsim.trim_frac", float64(q.Trimmed)/float64(q.Enqueued))
	}
	rep.set("netsim.dropped", float64(q.Dropped))
	rep.set("netsim.trimmed", float64(q.Trimmed))
	rep.set("netsim.marked", float64(q.Marked))
	rep.set("netsim.route_drops", float64(q.RouteDrops))
	rep.set("netsim.link_drops", float64(q.LinkDrops))
}
