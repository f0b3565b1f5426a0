package main

import (
	"fmt"
	"math"
	"runtime"
	"time"
)

// plainStats summarises the untraced repetitions of a traced run.
type plainStats struct {
	cpu    float64 // median CPU seconds per repetition
	engine float64 // median host seconds the engine ran per repetition
	gc     float64 // median GC cycles per repetition
}

// untracedCycles repeats cycle with tracing off for the budget (at
// least twice) and returns the baseline the traced repetitions are
// compared against. cycle returns the host time its engine ran, or 0.
func untracedCycles(e *env, budget time.Duration, cycle func() (time.Duration, error)) (plainStats, error) {
	var cpus, engines, gcs []float64
	deadline := time.Now().Add(budget)
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		c0 := cpuTime()
		d, err := cycle()
		cpus = append(cpus, (cpuTime() - c0).Seconds())
		runtime.ReadMemStats(&m1)
		e.chk.record(err)
		if err != nil {
			return plainStats{}, err
		}
		engines = append(engines, d.Seconds())
		gcs = append(gcs, float64(m1.NumGC-m0.NumGC))
	}
	return plainStats{cpu: median(cpus), engine: median(engines), gc: median(gcs)}, nil
}

// sumMedians sums, over the instances of a cycle, each instance's
// median host time across cycles: the host time of a typical cycle,
// robust to a slow repetition of any one instance.
func sumMedians(perInstance [][]float64) float64 {
	t := 0.0
	for _, xs := range perInstance {
		t += median(xs)
	}
	return t
}

// setSimFCT reports the simulated completion times (seconds) and
// goodputs (Gb/s) of the Polyraptor backend's foreground transfers.
func setSimFCT(rep *report, fcts, gbps []float64) {
	rep.set("sim_fct_p50_ms", 1e3*quantile(fcts, 0.5))
	rep.set("sim_fct_p90_ms", 1e3*quantile(fcts, 0.9))
	rep.set("sim_goodput_p50_gbps", quantile(gbps, 0.5))
}

// finishTraced reports what every traced run shares: tracing overhead
// (median CPU time of a traced repetition over an untraced one, minus
// 1, the heap and CPU profilers included), GC
// cycles, and the CPU and heap shares per module with their
// self-checks: the CPU shares sum to 1 and at most a tenth of samples
// is left unattributed.
func finishTraced(e *env, rep *report, plain plainStats, tracedCPU float64, cpu map[string]float64) {
	rep.set("trace.overhead_frac", tracedCPU/plain.cpu-1)
	rep.set("runtime.gc_cycles", plain.gc)
	samples := 0.0
	for _, v := range cpu {
		samples += v
	}
	rep.set("trace.cpu_samples", samples)
	cs := shares(cpu)
	total := 0.0
	for k, v := range cs {
		if _, ok := findMetric(perLayerMetrics, "cpu."+k); !ok {
			e.chk.fail("cpu bucket %q has no metric", k)
			continue
		}
		rep.set("cpu."+k, v)
		total += v
	}
	rep.set("trace.cpu_share_sum", total)
	if math.Abs(total-1) > 1e-9 {
		e.chk.fail("cpu shares sum to %v, not 1", total)
	}
	if cs["other"] > 0.1 {
		e.chk.fail("%.1f%% of CPU samples unattributed (limit 10%%)", 100*cs["other"])
	}
	for k, v := range shares(heapShares()) {
		if _, ok := findMetric(perLayerMetrics, "alloc."+k); !ok {
			e.chk.fail("alloc bucket %q has no metric", k)
			continue
		}
		rep.set("alloc."+k, v)
	}
	rep.set("check.failed_frac", float64(e.chk.failed)/math.Max(1, float64(e.chk.attempted)))
	fmt.Fprintf(e.log, "e2ebench: traced %.0f CPU samples; tracing overhead %+.1f%%\n", samples, 100*(tracedCPU/plain.cpu-1))
}
