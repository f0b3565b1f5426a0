package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"time"

	"polyraptor/internal/harness"
	"polyraptor/internal/metrics"
	"polyraptor/internal/netsim"
	"polyraptor/internal/polyraptor"
	"polyraptor/internal/sim"
	"polyraptor/internal/store"
	"polyraptor/internal/sweep"
	"polyraptor/internal/tcpsim"
	"polyraptor/internal/topology"
	"polyraptor/internal/workload"
)

// sweep-incast-chaos: the `polysweep -meter -slo-fct` path. A
// sweep.Matrix of harness.NewSweepCell cells, {incast, chaos} x
// {polyraptor, tcp, dctcp} x sweepSeeds seeds, metered against a fixed
// FCT SLO, on the sweep worker pool.
const (
	sweepSeeds   = 16
	sweepSenders = 12
	sweepBytes   = 512 << 10
	sweepK       = 4
	sweepSLO     = 60 * time.Millisecond
)

var (
	sweepScenarios = []string{"incast", "chaos"}
	sweepBackends  = []store.BackendKind{store.BackendPolyraptor, store.BackendTCP, store.BackendDCTCP}
)

var sweepWorkload = benchWorkload{
	name: "sweep-incast-chaos",
	sizes: func() map[string]any {
		p := sweepParams()
		return map[string]any{
			"k": p.FatTreeK, "incast_senders": p.Senders, "incast_bytes": p.Bytes,
			"chaos_flows": p.Chaos.Flows, "chaos_bytes": p.Chaos.Bytes, "chaos_fault": p.Chaos.Fault.Spec(),
			"chaos_deadline_s": p.Chaos.Deadline.Seconds(),
			"scenarios":        sweepScenarios, "backends": len(sweepBackends), "seeds": sweepSeeds,
			"slo_fct_s": sweepSLO.Seconds(),
		}
	},
	timed:  sweepTimed,
	traced: sweepTraced,
}

// sweepParams starts from the sweep defaults (k=4; chaos blackholes a
// quarter of the core links 500 µs into six cross-pod 256 KB flows and
// never heals them) and sets the incast fan-in and size.
func sweepParams() harness.SweepParams {
	p := harness.DefaultSweepParams()
	p.FatTreeK = sweepK
	p.Senders = sweepSenders
	p.Bytes = sweepBytes
	p.Meter = true
	p.SLO = &metrics.SLO{FCTDeadline: sweepSLO.Seconds()}
	return p
}

// sweepMatrix builds the matrix; wrap, when non-nil, wraps each
// cell's runner.
func sweepMatrix(seed int64, workers int, wrap func(sweep.Cell) sweep.Runner) (sweep.Matrix, error) {
	p := sweepParams()
	var cells []sweep.Cell
	for _, sc := range sweepScenarios {
		for _, be := range sweepBackends {
			c, err := harness.NewSweepCell(sc, be, p)
			if err != nil {
				return sweep.Matrix{}, err
			}
			if wrap != nil {
				c.Runner = wrap(c)
			}
			cells = append(cells, c)
		}
	}
	return sweep.Matrix{Cells: cells, Seeds: sweepSeeds, BaseSeed: seed, Parallelism: workers}, nil
}

// sweepSetup performs, once per cell, the set-up each of that cell's
// runs performs inside the harness: the fabric for the backend's
// switch discipline, the transport attach, and for incast the workload
// draw. The sweep runs it out of sight; the benchmark times it here by
// calling the same constructors.
func sweepSetup(seed int64) error {
	for _, sc := range sweepScenarios {
		for _, be := range sweepBackends {
			ncfg := be.NetConfig(seed)
			ft, err := topology.NewFatTree(sweepK, ncfg)
			if err != nil {
				return err
			}
			attachTransport(ft, be, seed)
			if sc == "incast" {
				workload.GenerateIncast(workload.IncastConfig{Senders: sweepSenders, BytesPerSender: sweepBytes, Seed: seed}, ft)
			}
		}
	}
	return nil
}

func attachTransport(ft *topology.FatTree, be store.BackendKind, seed int64) {
	switch be {
	case store.BackendPolyraptor:
		polyraptor.NewSystem(ft.Net, polyraptor.DefaultConfig(), seed)
	case store.BackendDCTCP:
		tcpsim.NewSystem(ft.Net, tcpsim.DCTCPConfig())
	default:
		tcpsim.NewSystem(ft.Net, tcpsim.DefaultConfig())
	}
}

// sweepOutcome is what one matrix run produced, reduced.
type sweepOutcome struct {
	res     *sweep.Result
	digest  string // the result serialised, for the repeat check
	flows   int    // completed flows, all cells and seeds
	rqFCT   []*metrics.Snapshot
	rqGbps  []*metrics.Snapshot
	queue   []*metrics.Snapshot
	samples uint64 // FCT samples metered, all cells
}

// checkSweep holds a matrix result to the program's outputs: no
// repetition errored, every incast flow completed, and every chaos
// flow either completed or stalled (stalls are model outcomes).
func checkSweep(res *sweep.Result) (sweepOutcome, error) {
	o := sweepOutcome{res: res}
	b, err := json.Marshal(res)
	if err != nil {
		return o, err
	}
	o.digest = string(b)
	p := sweepParams()
	for _, c := range res.Cells {
		if len(c.Errors) > 0 {
			return o, fmt.Errorf("sweep cell %s/%s: %v", c.Scenario, c.Backend, c.Errors)
		}
		switch c.Scenario {
		case "incast":
			o.flows += p.Senders * len(c.Seeds)
		case "chaos":
			done, stalled := c.Samples["completed"], c.Samples["stalled"]
			for i := range done {
				if int(done[i]+stalled[i]) != p.Chaos.Flows {
					return o, fmt.Errorf("sweep chaos/%s rep %d: %v completed + %v stalled of %d flows",
						c.Backend, i, done[i], stalled[i], p.Chaos.Flows)
				}
				o.flows += int(done[i])
			}
		}
		if h, ok := c.Hist("fct_s"); ok {
			o.samples += h.Count
			if c.Backend == store.BackendPolyraptor.String() {
				o.rqFCT = append(o.rqFCT, h.Snapshot)
			}
		}
		if h, ok := c.Hist("goodput_gbps"); ok && c.Backend == store.BackendPolyraptor.String() {
			o.rqGbps = append(o.rqGbps, h.Snapshot)
		}
		if h, ok := c.Hist("queue_depth_pkts"); ok {
			o.queue = append(o.queue, h.Snapshot)
		}
	}
	return o, nil
}

func sweepTimed(e *env, rep *report) {
	m, err := sweepMatrix(e.seed, e.workers, nil)
	if err != nil {
		e.chk.record(err)
		return
	}
	var (
		setups, cpus, allocs []float64
		first                *sweepOutcome
		ms0, ms1             runtime.MemStats
	)
	deadline := time.Now().Add(e.budget)
	for cycle := 0; cycle < 2 || time.Now().Before(deadline); cycle++ {
		runtime.GC()
		c0 := cpuTime()
		err := guarded(func() error { return sweepSetup(e.seed) })
		setups = append(setups, (cpuTime() - c0).Seconds())
		if err != nil {
			e.chk.record(err)
			continue
		}
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		c0 = cpuTime()
		res, err := m.Run()
		cpu := cpuTime() - c0
		runtime.ReadMemStats(&ms1)
		if err != nil {
			e.chk.record(err)
			continue
		}
		o, err := checkSweep(res)
		if err == nil && first != nil && o.digest != first.digest {
			err = fmt.Errorf("sweep seed %d: repeat differs from the first run", e.seed)
		}
		e.chk.record(err)
		if err != nil {
			continue
		}
		if first == nil {
			first = &o
		}
		cpus = append(cpus, cpu.Seconds())
		allocs = append(allocs, float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6)
	}
	if first == nil {
		return
	}
	rep.events["repetitions"] = uint64(len(cpus))
	rep.events["runs_per_matrix"] = uint64(len(m.Cells) * m.Seeds)
	rep.events["flows_per_matrix"] = uint64(first.flows)
	rep.set("setup_s", median(setups))
	rep.set("xfers_per_cpu_s", float64(first.flows)/median(cpus))
	rep.set("alloc_mb", median(allocs))
}

// timedRunner wraps a cell's runner to record one span per run, as a
// child of the matrix span *root (set before each Matrix.Run, which
// starts the workers after it).
type timedRunner struct {
	inner sweep.HistRunner
	tr    *tracer
	name  string
	root  *int
}

func (t timedRunner) Run(seed int64) (sweep.Metrics, error) {
	m, _, err := t.RunHist(seed)
	return m, err
}

func (t timedRunner) RunHist(seed int64) (sweep.Metrics, sweep.Hists, error) {
	sp := t.tr.begin("sweep.cell "+t.name, *t.root)
	defer t.tr.end(sp)
	return t.inner.RunHist(seed)
}

func sweepTraced(e *env, rep *report) {
	plainM, err := sweepMatrix(e.seed, e.workers, nil)
	if err != nil {
		e.chk.record(err)
		return
	}
	var ref *sweepOutcome
	plain, err := untracedCycles(e, e.budget/3, func() (time.Duration, error) {
		res, err := plainM.Run()
		if err != nil {
			return 0, err
		}
		o, err := checkSweep(res)
		switch {
		case err != nil:
		case ref == nil:
			ref = &o
		case o.digest != ref.digest:
			err = fmt.Errorf("sweep seed %d: repeat differs from the first run", e.seed)
		}
		return 0, err
	})
	if err != nil {
		return
	}

	root := 0
	m, err := sweepMatrix(e.seed, e.workers, func(c sweep.Cell) sweep.Runner {
		hr, ok := c.Runner.(sweep.HistRunner)
		if !ok {
			panic("metered sweep cell without histograms")
		}
		return timedRunner{inner: hr, tr: e.tr, name: c.Scenario + "/" + c.Backend, root: &root}
	})
	if err != nil {
		e.chk.record(err)
		return
	}
	prof, err := startCPUProfile()
	if err != nil {
		e.chk.record(err)
		return
	}
	var (
		traced, util, runSpans []float64
		deadline               = time.Now().Add(e.budget - e.budget/3 - e.budget/6)
	)
	for cycle := 0; cycle < 1 || time.Now().Before(deadline); cycle++ {
		root = e.tr.begin("sweep.Matrix.Run", 0)
		t0, c0 := time.Now(), cpuTime()
		res, err := m.Run()
		wall := time.Since(t0).Seconds()
		traced = append(traced, (cpuTime() - c0).Seconds())
		e.tr.end(root)
		if err == nil {
			var o sweepOutcome
			o, err = checkSweep(res)
			if err == nil && o.digest != ref.digest {
				err = fmt.Errorf("sweep seed %d: traced run differs from the untraced one", e.seed)
			}
		}
		e.chk.record(err)
		// How busy the pool kept its workers: summed per-run host time
		// over wall time x workers.
		runs := e.tr.childDurations(root)
		runSpans = append(runSpans, runs...)
		util = append(util, sum(runs)/(wall*float64(e.workers)))
	}
	// Fabric and transport counters are not visible through the sweep,
	// so the incast runs are recomposed from the layers' public
	// functions, each checked against the sweep's own result.
	inc, err := recomposeIncast(e, ref.res)
	e.chk.record(err)
	cpu, err := prof.stop()
	e.chk.record(err)

	chaosDrops := chaosCounters(ref.res)
	q := inc.queue
	q.Dropped += chaosDrops.Dropped
	q.RouteDrops += chaosDrops.RouteDrops
	q.LinkDrops += chaosDrops.LinkDrops
	rep.events["incast_sim_events"] = inc.events
	rep.set("sim.events", float64(inc.events))
	rep.set("sim.pending_peak", float64(inc.pendingPeak))
	if inc.steps > 0 {
		rep.set("sim.pending_mean", inc.pendingSum/float64(inc.steps))
	}
	setQueueMetrics(rep, q, inc.events)
	rep.set("sim.ns_per_event", sum(e.tr.durations("sim.Engine.Step"))*1e9/float64(inc.events))
	rep.set("topology.build_s", median(e.tr.durations("topology.NewFatTree")))
	rep.set("workload.generate_s", median(e.tr.durations("workload.GenerateIncast")))
	rep.set("netsim.queue_depth_p99", snapQuantile(ref.queue, 99))
	// Pooled from the metered histograms, as polysweep reports them.
	rep.set("sim_fct_p50_ms", 1e3*snapQuantile(ref.rqFCT, 50))
	rep.set("sim_fct_p90_ms", 1e3*snapQuantile(ref.rqFCT, 90))
	rep.set("sim_goodput_p50_gbps", snapQuantile(ref.rqGbps, 50))
	rep.set("polyraptor.symbols", float64(inc.symbols))
	rep.set("polyraptor.trims", float64(inc.trims))
	if inc.need > 0 {
		rep.set("polyraptor.symbol_overhead", float64(inc.symbols)/float64(inc.need)-1)
	}
	rep.set("polyraptor.open_sessions_end", float64(inc.openRQ))
	rep.set("tcpsim.retransmits", float64(inc.retransmits))
	rep.set("tcpsim.timeouts", float64(inc.timeouts))
	rep.set("tcpsim.fct_p90_ms", 1e3*quantile(inc.tcpFCT, 0.9))
	rep.set("tcpsim.open_flows_end", float64(inc.openTCP))
	for _, be := range sweepBackends {
		rep.set("chaos.stall_rate_"+backendTag(be), cellMean(ref.res, "chaos", be, "stall_rate"))
	}
	rep.set("metrics.samples", float64(ref.samples))
	rep.set("slo_attainment", rqAttainment(ref.res))
	rep.set("sweep.runs", float64(len(m.Cells)*m.Seeds))
	rep.set("sweep.run_s_p50", median(runSpans))
	rep.set("sweep.worker_util", median(util))
	finishTraced(e, rep, plain, median(traced), cpu)
}

func backendTag(be store.BackendKind) string {
	switch be {
	case store.BackendPolyraptor:
		return "rq"
	case store.BackendDCTCP:
		return "dctcp"
	}
	return "tcp"
}

// cellMean is a metric's mean over one cell's repetitions.
func cellMean(res *sweep.Result, scenario string, be store.BackendKind, metric string) float64 {
	for _, c := range res.Cells {
		if c.Scenario == scenario && c.Backend == be.String() {
			if a, ok := c.Metric(metric); ok {
				return a.Mean
			}
		}
	}
	return 0
}

// rqAttainment pools the Polyraptor cells' SLO attainment: SLO-met
// flows over offered flows, stalls counting against it.
func rqAttainment(res *sweep.Result) float64 {
	p := sweepParams()
	var met, offered float64
	for _, c := range res.Cells {
		if c.Backend != store.BackendPolyraptor.String() {
			continue
		}
		n := float64(p.Senders)
		if c.Scenario == "chaos" {
			n = float64(p.Chaos.Flows)
		}
		for _, a := range c.Samples["slo_attainment"] {
			met += a * n
			offered += n
		}
	}
	if offered == 0 {
		return 0
	}
	return met / offered
}

// chaosCounters sums the drop counts the chaos cells report.
func chaosCounters(res *sweep.Result) netsim.QueueStats {
	var q netsim.QueueStats
	for _, c := range res.Cells {
		if c.Scenario != "chaos" {
			continue
		}
		q.RouteDrops += int64(sum(c.Samples["blackholed"]))
		q.LinkDrops += int64(sum(c.Samples["link_drops"]))
		q.Dropped += int64(sum(c.Samples["queue_drops"]))
	}
	return q
}

// incastCounters are the recomposed incast runs' counters, summed.
type incastCounters struct {
	events               uint64
	steps                uint64
	pendingPeak          int
	pendingSum           float64
	queue                netsim.QueueStats
	symbols, need, trims int
	openRQ, openTCP      int
	retransmits          int64
	timeouts             int64
	tcpFCT               []float64
}

// recomposeIncast reruns every incast (backend, seed) of the matrix
// from the layers' public functions, the way harness.RunIncastTraced
// builds it, driving the engine one Step at a time. Each run's
// aggregate goodput must equal the sweep's own result for that seed.
func recomposeIncast(e *env, res *sweep.Result) (incastCounters, error) {
	var ic incastCounters
	for _, c := range res.Cells {
		if c.Scenario != "incast" {
			continue
		}
		be, ok := store.ParseBackend(c.Backend)
		if !ok {
			return ic, fmt.Errorf("unknown backend %q", c.Backend)
		}
		want := c.Samples["goodput_gbps"]
		for i, seed := range c.Seeds {
			var got float64
			err := guarded(func() error {
				var err error
				got, err = composeIncast(e.tr, be, seed, &ic)
				return err
			})
			if err != nil {
				return ic, err
			}
			if i >= len(want) || got != want[i] {
				return ic, fmt.Errorf("recomposed incast %s seed %d: goodput %v, sweep reported %v", c.Backend, seed, got, want)
			}
		}
	}
	return ic, nil
}

// composeIncast is one incast run (harness.RunIncastTraced without a
// trace) rebuilt from public functions; it returns aggregate goodput.
func composeIncast(tr *tracer, be store.BackendKind, seed int64, ic *incastCounters) (float64, error) {
	root := tr.begin("incast.recompose", 0)
	defer tr.end(root)
	sp := tr.begin("topology.NewFatTree", root)
	ft, err := topology.NewFatTree(sweepK, be.NetConfig(seed))
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	sp = tr.begin("workload.GenerateIncast", root)
	inc := workload.GenerateIncast(workload.IncastConfig{Senders: sweepSenders, BytesPerSender: sweepBytes, Seed: seed}, ft)
	tr.end(sp)
	var last sim.Time
	done := 0
	var openFn func() int
	if be == store.BackendPolyraptor {
		sp = tr.begin("polyraptor.NewSystem", root)
		sys := polyraptor.NewSystem(ft.Net, polyraptor.DefaultConfig(), seed)
		tr.end(sp)
		payload := int64(sys.Cfg.SymbolPayload)
		for _, s := range inc.Senders {
			sys.StartUnicast(s, inc.Client, inc.Bytes, func(ev polyraptor.CompletionEvent) {
				ic.symbols += ev.Symbols
				ic.need += int((ev.Bytes + payload - 1) / payload)
				ic.trims += ev.Trims
				last = max(last, ev.End)
				done++
			})
		}
		openFn = func() int { s, r := sys.OpenSessions(); return s + r }
	} else {
		cfg := tcpsim.DefaultConfig()
		if be == store.BackendDCTCP {
			cfg = tcpsim.DCTCPConfig()
		}
		sp = tr.begin("tcpsim.NewSystem", root)
		sys := tcpsim.NewSystem(ft.Net, cfg)
		tr.end(sp)
		for _, s := range inc.Senders {
			sys.StartFlow(s, inc.Client, inc.Bytes, func(r tcpsim.FlowResult) {
				ic.retransmits += r.Retransmits
				ic.timeouts += r.Timeouts
				ic.tcpFCT = append(ic.tcpFCT, (r.End - r.Start).Seconds())
				last = max(last, r.End)
				done++
			})
		}
		openFn = sys.OpenFlows
	}
	eng := ft.Net.Eng
	sp = tr.begin("sim.Engine.Step", root)
	for eng.Step() {
		p := eng.Pending()
		ic.pendingSum += float64(p)
		ic.pendingPeak = max(ic.pendingPeak, p)
		ic.steps++
	}
	tr.end(sp)
	if done != sweepSenders {
		return 0, fmt.Errorf("incast %v seed %d: %d/%d flows completed", be, seed, done, sweepSenders)
	}
	ic.events += eng.Processed()
	q := fabricTotals(ft)
	ic.queue.Enqueued += q.Enqueued
	ic.queue.Dropped += q.Dropped
	ic.queue.Trimmed += q.Trimmed
	ic.queue.Marked += q.Marked
	ic.queue.RouteDrops += q.RouteDrops
	ic.queue.LinkDrops += q.LinkDrops
	if be == store.BackendPolyraptor {
		ic.openRQ += openFn()
	} else {
		ic.openTCP += openFn()
	}
	return gbpsOver(sweepBytes*sweepSenders, last), nil
}

// snapQuantile reads the p-th percentile (0..100) of the merged
// snapshots the way metrics.Histogram.Quantile does: linear
// interpolation between order statistics, each a bucket's
// representative value clamped to the exact extremes.
func snapQuantile(snaps []*metrics.Snapshot, p float64) float64 {
	counts := map[int]uint64{}
	var zero, total uint64
	lo, hi := 0.0, 0.0
	for _, s := range snaps {
		if s == nil || s.Count == 0 {
			continue
		}
		if total == 0 || s.Min < lo {
			lo = s.Min
		}
		if total == 0 || s.Max > hi {
			hi = s.Max
		}
		total += s.Count
		zero += s.Zero
		for _, b := range s.Buckets {
			counts[b.Index] += b.Count
		}
	}
	if total == 0 {
		return 0
	}
	idx := make([]int, 0, len(counts))
	for i := range counts {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	at := func(r uint64) float64 {
		switch {
		case r == 0:
			return lo
		case r >= total-1:
			return hi
		case r < zero:
			return 0
		}
		cum := zero
		for _, i := range idx {
			cum += counts[i]
			if r < cum {
				return min(max(metrics.BucketValue(i), lo), hi)
			}
		}
		return hi
	}
	pos := p / 100 * float64(total-1)
	r := uint64(pos)
	f := pos - float64(r)
	v := at(r)
	if f == 0 || r+1 >= total {
		return v
	}
	return v*(1-f) + at(r+1)*f
}
