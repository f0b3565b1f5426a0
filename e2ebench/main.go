// Command e2ebench is the repository's end-to-end benchmark. It drives
// four workloads from one process through the layers' public
// functions, repeats each for a fixed host-time budget, checks every
// output, and prints the result as one JSON object on the last line of
// standard output. With -trace 1 it instead runs the workload traced
// (spans around each layer call, counters from the layers' getters, a
// sampled CPU and heap profile) and reports per-layer metrics. See
// README.md for the workloads, the metrics and what each should move.
//
// Usage (from the repository root, after `go build -o <bin> .` in this
// directory; run.py does both):
//
//	<bin> -workload fig1a-multicast -seed 1 -seconds 20 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// benchWorkload is one named set of inputs. Both functions receive only the
// seed-derived configuration through env and fill the report.
type benchWorkload struct {
	name string
	// sizes records the generated input sizes for the manifest.
	sizes func() map[string]any
	// timed runs with tracing off and reports the end-to-end metrics.
	timed func(e *env, r *report)
	// traced runs with spans, counters and profiles and reports the
	// per-layer metrics.
	traced func(e *env, r *report)
}

// workloads lists the benchmark's workloads in BENCHMARK.json order.
var workloads = []benchWorkload{fig1aWorkload, sweepWorkload, storageWorkload, rqudpWorkload}

func findWorkload(name string) (benchWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

// env is what a workload run may use: its seed, its host-time budget
// and the output checks. tr is nil in timed runs.
type env struct {
	seed    int64
	budget  time.Duration
	workers int
	tr      *tracer
	chk     *checks
	log     io.Writer
}

// untraced returns a copy of e with tracing off, for the baseline
// repetitions of a traced run.
func (e *env) untraced() *env {
	u := *e
	u.tr = nil
	return &u
}

// report collects one run's metrics and manifest entries.
type report struct {
	metrics map[string]float64
	events  map[string]uint64
}

func (r *report) set(name string, v float64) { r.metrics[name] = v }

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// manifest says what the run was.
type manifest struct {
	Workload     string            `json:"workload"`
	Seed         int64             `json:"seed"`
	Seconds      float64           `json:"seconds"`
	Trace        bool              `json:"trace"`
	GitRev       string            `json:"git_rev"`
	SourceDigest string            `json:"source_digest"`
	GoVersion    string            `json:"go_version"`
	GOMAXPROCS   int               `json:"gomaxprocs"`
	NProc        int               `json:"nproc"`
	Sizes        map[string]any    `json:"sizes"`
	Events       map[string]uint64 `json:"events"`
	Started      string            `json:"started"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	wname := fs.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "host seconds of measurement")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics; 0 = timed run reporting end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*wname)
	if !ok {
		fmt.Fprintf(stderr, "e2ebench: unknown workload %q (have %s)\n", *wname, strings.Join(names, ", "))
		return 2
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(stderr, "e2ebench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	// The load is generated in one process on at most two processors,
	// so results do not depend on how many the machine has beyond that.
	workers := min(2, runtime.NumCPU())
	runtime.GOMAXPROCS(workers)
	traced := *trace == 1

	e := &env{
		seed:    *seed,
		budget:  time.Duration(*seconds * float64(time.Second)),
		workers: workers,
		chk:     &checks{log: stderr},
		log:     stderr,
	}
	rep := &report{metrics: map[string]float64{}, events: map[string]uint64{}}
	man := manifest{
		Workload:   w.name,
		Seed:       *seed,
		Seconds:    *seconds,
		Trace:      traced,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		Sizes:      w.sizes(),
		Events:     rep.events,
		Started:    time.Now().UTC().Format(time.RFC3339),
	}
	man.GitRev, man.SourceDigest = sourceIdentity()

	var units []metricDef
	if traced {
		e.tr = newTracer(fmt.Sprintf("%s-%d-%d", w.name, *seed, time.Now().UnixNano()))
		units = perLayerMetrics
		w.traced(e, rep)
	} else {
		units = endToEndMetrics
		w.timed(e, rep)
	}

	out := result{Metrics: map[string]metricValue{}}
	for _, d := range units {
		v, ok := rep.metrics[d.name]
		if !ok {
			// Per-layer metrics of a layer this workload never
			// reaches read 0; an end-to-end metric must be measured.
			if !traced {
				e.chk.fail("metric %s was not measured", d.name)
			}
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for name := range rep.metrics {
		if _, ok := findMetric(units, name); !ok {
			e.chk.fail("workload reported undeclared metric %s", name)
		}
	}
	out.Attempted, out.Failed = e.chk.attempted, e.chk.failed
	if out.Attempted < 1 {
		out.Attempted = 1
		out.Failed = 1
	}
	out.Correct = out.Failed == 0

	if e.tr != nil {
		path, err := e.tr.write(man)
		if err != nil {
			fmt.Fprintf(stderr, "e2ebench: writing spans: %v\n", err)
		} else {
			fmt.Fprintf(stderr, "e2ebench: %d spans written to %s\n", len(e.tr.spans), path)
		}
	}
	manLine, _ := json.Marshal(map[string]any{"manifest": man})
	fmt.Fprintln(stdout, string(manLine))
	printTable(stdout, units, out.Metrics)
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// printTable prints every metric by name with its unit, for people.
func printTable(w io.Writer, defs []metricDef, vals map[string]metricValue) {
	names := make([]string, 0, len(defs))
	for _, d := range defs {
		names = append(names, d.name)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "# %-28s %14.6g %s\n", n, vals[n].Value, vals[n].Unit)
	}
}

// checks counts the units of work attempted (runs, transfers,
// fetches) and those whose output check failed.
type checks struct {
	attempted, failed int
	log               io.Writer
}

// record counts one unit of work; a non-nil err marks it failed.
func (c *checks) record(err error) {
	c.attempted++
	if err != nil {
		c.failed++
		fmt.Fprintf(c.log, "e2ebench: check failed: %v\n", err)
	}
}

// fail counts one failed unit of work.
func (c *checks) fail(format string, args ...any) {
	c.record(fmt.Errorf(format, args...))
}

// guarded runs fn, turning a panic into an error so one bad repetition
// is counted as failed instead of aborting the run.
func guarded(fn func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return fn()
}
