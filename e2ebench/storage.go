package main

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"polyraptor/internal/harness"
	"polyraptor/internal/sim"
	"polyraptor/internal/store"
	"polyraptor/internal/sweep"
	"polyraptor/internal/topology"
	"polyraptor/internal/workload"
)

// storage-failover: the `polystore` path. harness.RunStorageCluster on
// the short cluster (k=4, 48 pre-loaded 256 KB objects, 3 replicas,
// Zipf 0.9 GETs beside 10% PUTs, 160 Poisson requests, a rack failing
// at the middle request and the re-replication storm that follows),
// run under Polyraptor and TCP. Each cycle runs storageSubSeeds
// clusters derived from the seed; cycles repeat the same clusters.
const storageSubSeeds = 6

var storageBackends = []store.BackendKind{store.BackendPolyraptor, store.BackendTCP}

var storageWorkload = benchWorkload{
	name: "storage-failover",
	sizes: func() map[string]any {
		c := store.ShortConfig()
		return map[string]any{
			"k": c.FatTreeK, "objects": c.Objects, "object_bytes": c.ObjectBytes, "replicas": c.Replicas,
			"zipf": c.ZipfSkew, "requests": c.Requests, "put_frac": c.PutFrac, "load": c.LoadFactor,
			"fail": c.FailMode.String(), "fail_frac": c.FailFrac, "backends": len(storageBackends),
			"clusters_per_cycle": storageSubSeeds,
		}
	},
	timed:  storageTimed,
	traced: storageTraced,
}

func storageOptions(seed int64, workers int) harness.StorageOptions {
	c := store.ShortConfig()
	c.Seed = seed
	return harness.StorageOptions{Cluster: c, Backends: storageBackends, Parallelism: workers}
}

// storageSetup performs the set-up store.Run performs for each backend
// before its engine runs: fabric, transport attach, catalogue
// placement and the popularity law. The harness runs it out of sight;
// the benchmark times it here by calling the same constructors.
func storageSetup(seed int64, tr *tracer, parent int) error {
	cfg := store.ShortConfig()
	for _, be := range storageBackends {
		sp := tr.begin("topology.NewFatTree", parent)
		ft, err := topology.NewFatTree(cfg.FatTreeK, be.NetConfig(seed))
		tr.end(sp)
		if err != nil {
			return err
		}
		attachTransport(ft, be, seed)
		cat := store.NewCatalog(ft)
		rng := sim.RNG(seed, "store-placement")
		for i := 0; i < cfg.Objects; i++ {
			cat.Add(cfg.ObjectBytes, cat.Place(rng, -1, cfg.Replicas))
		}
		workload.NewZipf(cfg.Objects, cfg.ZipfSkew)
	}
	return nil
}

// checkStorage holds one cluster run to the program's outputs: every
// request was served (none skipped), and every backend healed the
// failure back to full replication.
func checkStorage(runs []harness.StorageRun, requests int) error {
	if len(runs) != len(storageBackends) {
		return fmt.Errorf("storage: %d backend runs, want %d", len(runs), len(storageBackends))
	}
	for _, r := range runs {
		res := r.Result
		served := len(res.Gets) + len(res.Puts)
		if served != requests || res.SkippedGets+res.SkippedPuts != 0 {
			return fmt.Errorf("storage %s seed: %d/%d requests served (%d GETs, %d PUTs skipped)",
				r.Backend, served, requests, res.SkippedGets, res.SkippedPuts)
		}
		rec := res.Recovery
		if !rec.FullyReplicated || rec.Repaired != rec.LostReplicas {
			return fmt.Errorf("storage %s: repaired %d/%d lost replicas, fully replicated %v",
				r.Backend, rec.Repaired, rec.LostReplicas, rec.FullyReplicated)
		}
	}
	return nil
}

// storageCycle runs every cluster of one cycle and checks it; it also
// returns each cluster's CPU time.
func storageCycle(e *env, parent int) ([][]harness.StorageRun, []float64, error) {
	out := make([][]harness.StorageRun, storageSubSeeds)
	cpus := make([]float64, storageSubSeeds)
	for i := range out {
		opt := storageOptions(sweep.SubSeed(e.seed, i), e.workers)
		err := guarded(func() error {
			sp := e.tr.begin("harness.RunStorageCluster", parent)
			c0 := cpuTime()
			runs, err := harness.RunStorageCluster(opt)
			cpus[i] = (cpuTime() - c0).Seconds()
			e.tr.end(sp)
			if err != nil {
				return err
			}
			out[i] = runs
			return checkStorage(runs, opt.Cluster.Requests)
		})
		if err != nil {
			return nil, nil, err
		}
	}
	return out, cpus, nil
}

// storageXfers counts the completed transfers of a cycle: GETs, PUTs
// and repairs under every backend.
func storageXfers(cycle [][]harness.StorageRun) int {
	n := 0
	for _, runs := range cycle {
		for _, r := range runs {
			n += len(r.Result.Gets) + len(r.Result.Puts) + len(r.Result.Repairs)
		}
	}
	return n
}

// storageRQ pools the Polyraptor runs' foreground transfers.
func storageRQ(cycle [][]harness.StorageRun) (fcts, gbps []float64) {
	for _, runs := range cycle {
		res := runs[0].Result
		fcts = append(append(fcts, res.GetFCTs()...), res.PutFCTs()...)
		gbps = append(append(gbps, res.GetGoodputs()...), res.PutGoodputs()...)
	}
	return fcts, gbps
}

func storageTimed(e *env, rep *report) {
	var (
		setups, allocs []float64
		cpus           = make([][]float64, storageSubSeeds) // per cluster, per cycle
		first          [][]harness.StorageRun
		ms0, ms1       runtime.MemStats
	)
	deadline := time.Now().Add(e.budget)
	for cycle := 0; cycle < 2 || time.Now().Before(deadline); cycle++ {
		runtime.GC()
		c0 := cpuTime()
		err := guarded(func() error { return storageSetup(e.seed, nil, 0) })
		setups = append(setups, (cpuTime() - c0).Seconds())
		if err != nil {
			e.chk.record(err)
			continue
		}
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		runs, cs, err := storageCycle(e, 0)
		runtime.ReadMemStats(&ms1)
		if err == nil && first != nil && !sameStorage(first, runs) {
			err = fmt.Errorf("storage seed %d: repeat differs from the first run", e.seed)
		}
		e.chk.record(err)
		if err != nil {
			continue
		}
		if first == nil {
			first = runs
		}
		for i, c := range cs {
			cpus[i] = append(cpus[i], c)
		}
		allocs = append(allocs, float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6)
	}
	if first == nil {
		return
	}
	rep.events["repetitions"] = uint64(len(allocs))
	rep.events["transfers_per_cycle"] = uint64(storageXfers(first))
	rep.set("setup_s", median(setups))
	rep.set("xfers_per_cpu_s", float64(storageXfers(first))/sumMedians(cpus))
	rep.set("alloc_mb", median(allocs))
}

// sameStorage compares two cycles' raw results.
func sameStorage(a, b [][]harness.StorageRun) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		for j := range a[i] {
			if !reflect.DeepEqual(a[i][j].Result, b[i][j].Result) {
				return false
			}
		}
	}
	return true
}

func storageTraced(e *env, rep *report) {
	var ref [][]harness.StorageRun
	plain, err := untracedCycles(e, e.budget/3, func() (time.Duration, error) {
		runs, _, err := storageCycle(e.untraced(), 0)
		switch {
		case err != nil:
		case ref == nil:
			ref = runs
		case !sameStorage(ref, runs):
			err = fmt.Errorf("storage seed %d: repeat differs from the first run", e.seed)
		}
		return 0, err
	})
	if err != nil {
		return
	}
	prof, err := startCPUProfile()
	if err != nil {
		e.chk.record(err)
		return
	}
	var traced []float64
	deadline := time.Now().Add(e.budget - e.budget/3)
	for cycle := 0; cycle < 1 || time.Now().Before(deadline); cycle++ {
		root := e.tr.begin("storage.cycle", 0)
		sp := e.tr.begin("storage.setup", root)
		err := guarded(func() error { return storageSetup(e.seed, e.tr, sp) })
		e.tr.end(sp)
		c0 := cpuTime()
		var runs [][]harness.StorageRun
		if err == nil {
			runs, _, err = storageCycle(e, root)
		}
		traced = append(traced, (cpuTime() - c0).Seconds())
		e.tr.end(root)
		if err == nil && !sameStorage(ref, runs) {
			err = fmt.Errorf("storage seed %d: traced run differs from the untraced one", e.seed)
		}
		e.chk.record(err)
	}
	cpu, err := prof.stop()
	e.chk.record(err)

	var gets, puts, repairs int
	var rqGet, rqPut, tcpFCT, inter []float64
	for _, runs := range ref {
		rq := runs[0]
		gets += len(rq.Result.Gets)
		puts += len(rq.Result.Puts)
		repairs += len(rq.Result.Repairs)
		rqGet = append(rqGet, rq.Result.GetFCTs()...)
		rqPut = append(rqPut, rq.Result.PutFCTs()...)
		if x, ok := rq.Interference(); ok {
			inter = append(inter, x)
		}
		for _, r := range runs[1:] {
			tcpFCT = append(append(tcpFCT, r.Result.GetFCTs()...), r.Result.PutFCTs()...)
		}
	}
	fcts, gbps := storageRQ(ref)
	setSimFCT(rep, fcts, gbps)
	rep.set("topology.build_s", median(e.tr.durations("topology.NewFatTree")))
	rep.set("store.gets", float64(gets))
	rep.set("store.puts", float64(puts))
	rep.set("store.repairs", float64(repairs))
	rep.set("store.get_fct_p90_ms", 1e3*quantile(rqGet, 0.9))
	rep.set("store.put_fct_p90_ms", 1e3*quantile(rqPut, 0.9))
	rep.set("store.interference", median(inter))
	rep.set("tcpsim.fct_p90_ms", 1e3*quantile(tcpFCT, 0.9))
	finishTraced(e, rep, plain, median(traced), cpu)
}
