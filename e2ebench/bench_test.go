package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"polyraptor/internal/harness"
	"polyraptor/internal/metrics"
)

// benchDoc is the part of BENCHMARK.json the program must agree with.
type benchDoc struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []metricDef, names, units, better []string) {
		if len(got) != len(names) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(names), len(got))
		}
		for i, d := range got {
			if d.name != names[i] || d.unit != units[i] || d.better != better[i] {
				t.Errorf("%s %d: BENCHMARK.json %s/%s/%s, program %s/%s/%s",
					kind, i, names[i], units[i], better[i], d.name, d.unit, d.better)
			}
		}
	}
	var n, u, bt []string
	for _, m := range doc.EndToEnd {
		n, u, bt = append(n, m.Name), append(u, m.Unit), append(bt, m.Better)
	}
	check("end_to_end", endToEndMetrics, n, u, bt)
	n, u, bt = nil, nil, nil
	for _, m := range doc.PerLayer {
		n, u, bt = append(n, m.Name), append(u, m.Unit), append(bt, m.Better)
	}
	check("per_layer", perLayerMetrics, n, u, bt)
}

// runBench runs the benchmark in-process and returns the parsed last
// line of its output.
func runBench(t *testing.T, args ...string) result {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("run %v: exit %d\n%s", args, code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, lines[len(lines)-1])
	}
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Fatalf("run %v: correct=%v attempted=%d failed=%d\n%s", args, r.Correct, r.Attempted, r.Failed, errb.String())
	}
	return r
}

// TestEveryMetricEmitted runs every workload timed and traced at the
// shortest budget (each still makes its minimum repetitions) and
// checks that every declared metric is reported with its unit, and
// that every end-to-end metric was measured (none is ever 0).
func TestEveryMetricEmitted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	t.Chdir(t.TempDir()) // traced runs write their spans under the working directory
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace="+trace, func(t *testing.T) {
				r := runBench(t, "-workload", w.name, "-seed", "3", "-seconds", "0.01", "-trace", trace)
				defs := endToEndMetrics
				if trace == "1" {
					defs = perLayerMetrics
				}
				if len(r.Metrics) != len(defs) {
					t.Errorf("%d metrics reported, %d declared", len(r.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := r.Metrics[d.name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", d.name)
					case m.Unit != d.unit:
						t.Errorf("metric %s: unit %q, want %q", d.name, m.Unit, d.unit)
					case trace == "0" && !(m.Value > 0):
						t.Errorf("end-to-end metric %s = %v", d.name, m.Value)
					}
				}
				if trace == "1" {
					if s := r.Metrics["trace.cpu_share_sum"].Value; math.Abs(s-1) > 1e-9 {
						t.Errorf("cpu shares sum to %v", s)
					}
					if o := r.Metrics["cpu.other"].Value; o > 0.1 {
						t.Errorf("cpu.other = %v, over a tenth", o)
					}
				}
			})
		}
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-workload", "nope", "-seed", "1"}, &out, &errb); code == 0 {
		t.Fatal("unknown workload accepted")
	}
	if out.Len() != 0 {
		t.Fatalf("printed a result for a bad invocation: %s", out.String())
	}
}

// smallScale is a Figure 1a instance small enough for unit tests.
func smallScale(seed int64) harness.Scale {
	return harness.Scale{FatTreeK: 4, Sessions: 30, Bytes: 128 << 10, LoadFactor: 0.33, Seed: seed}
}

func TestFig1aCompositionMatchesHarness(t *testing.T) {
	sc := smallScale(5)
	r, err := composeFig1a(sc, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ref := harness.RunFig1RQ(sc, harness.PatternMulticast, fig1aReplicas)
	if err := checkFig1a(sc, r, ref); err != nil {
		t.Fatalf("composition differs from harness.RunFig1RQ: %v", err)
	}
	// The traced composition drives the engine Step by Step and must
	// produce the same output.
	tr, err := composeFig1a(sc, newTracer("test"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkFig1a(sc, tr, ref); err != nil {
		t.Fatalf("traced composition: %v", err)
	}
	if tr.pendingPeak == 0 || tr.events != r.events {
		t.Fatalf("traced run: pending peak %d, events %d vs %d", tr.pendingPeak, tr.events, r.events)
	}
}

func TestPerturbedSimReferenceFails(t *testing.T) {
	sc := smallScale(5)
	r, err := composeFig1a(sc, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ref := harness.RunFig1RQ(sc, harness.PatternMulticast, fig1aReplicas)
	bad := slices.Clone(ref)
	bad[len(bad)/2] = math.Nextafter(bad[len(bad)/2], 2)
	if err := checkFig1a(sc, r, bad); err == nil {
		t.Fatal("a reference one ulp off passed the output check")
	}
	r.completed--
	if err := checkFig1a(sc, r, ref); err == nil {
		t.Fatal("a missing session completion passed the output check")
	}
}

func TestFlippedFetchedByteFails(t *testing.T) {
	want := rqObject(9)[:4096]
	got := slices.Clone(want)
	if err := checkFetched(got, want, 1); err != nil {
		t.Fatal(err)
	}
	got[1234] ^= 0x01
	if err := checkFetched(got, want, 1); err == nil {
		t.Fatal("a flipped byte passed the output check")
	}
}

// TestFetchAgainstCorruptedCopyFails makes a real loopback fetch whose
// expected bytes differ from the served object in one byte.
func TestFetchAgainstCorruptedCopyFails(t *testing.T) {
	obj := rqObject(4)
	fleet, err := startFleet(obj, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.close()
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c := &rqClient{conn: conn, obj: obj}
	if _, _, err := c.fetch(fleet, nil, 0); err != nil {
		t.Fatalf("clean fetch: %v", err)
	}
	c.obj = slices.Clone(obj)
	c.obj[len(obj)/3] ^= 0x80
	if _, _, err := c.fetch(fleet, nil, 0); err == nil {
		t.Fatal("a fetch compared against a corrupted copy passed")
	}
}

func TestSeedDeterminism(t *testing.T) {
	out := func(seed int64) []byte {
		r, err := composeFig1a(smallScale(seed), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := json.Marshal([][]float64{r.goodputs, r.fcts, {float64(r.events), float64(r.symbols)}})
		return b
	}
	if !bytes.Equal(out(7), out(7)) {
		t.Fatal("fig1a: the same seed gave different outputs")
	}
	if bytes.Equal(out(7), out(8)) {
		t.Fatal("fig1a: different seeds gave the same outputs")
	}

	sweepOut := func(seed int64) string {
		m, err := sweepMatrix(seed, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		o, err := checkSweep(res)
		if err != nil {
			t.Fatal(err)
		}
		return o.digest
	}
	if sweepOut(3) != sweepOut(3) {
		t.Fatal("sweep: the same seed gave different outputs")
	}
	if sweepOut(3) == sweepOut(4) {
		t.Fatal("sweep: different seeds gave the same outputs")
	}
}

func TestSnapQuantileMatchesMergedHistogram(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	merged := metrics.NewHistogram()
	var snaps []*metrics.Snapshot
	for i := 0; i < 3; i++ {
		h := metrics.NewHistogram()
		for j := 0; j < 200; j++ {
			v := math.Exp(rng.NormFloat64()) * 1e-3
			h.Record(v)
			merged.Record(v)
		}
		snaps = append(snaps, h.Snapshot())
	}
	for _, p := range []float64{0, 10, 50, 90, 99, 100} {
		if got, want := snapQuantile(snaps, p), merged.Quantile(p); got != want {
			t.Errorf("p%v: %v, merged histogram %v", p, got, want)
		}
	}
}

func TestAttributeCPU(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		{[]string{"polyraptor/internal/sim.(*Engine).siftDown", "polyraptor/internal/sim.(*Engine).Step"}, "sim"},
		{[]string{"runtime.mapaccess2_fast32", "polyraptor/internal/netsim.(*Switch).Receive"}, "netsim"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "polyraptor/internal/netsim.(*Network).AllocPacket"}, "runtime_malloc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime_gc"},
		{[]string{"internal/runtime/syscall.Syscall6", "syscall.Syscall6", "internal/poll.(*FD).ReadFrom", "polyraptor/internal/rqudp.FetchMultiSourceStats"}, "syscall"},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule"}, "runtime_sched"},
		{[]string{"crypto/sha256.block", "main.sourceIdentity"}, "bench"},
		{[]string{"polyraptor.EncodeObject"}, "polyraptor"},
		{[]string{"polyraptor/internal/metrics.sortedKeys[go.shape.struct { polyraptor/internal/metrics.name string }]"}, "metrics"},
		{[]string{"slices.SortFunc[go.shape.[]polyraptor/internal/sim.event]", "polyraptor/internal/sim.(*Engine).Step"}, "sim"},
		{[]string{"polyraptor/internal/newlayer.Run", "polyraptor/internal/sim.(*Engine).Step"}, "unlisted"},
		{[]string{"strings.Index", "testing.tRunner"}, "other"},
	}
	for _, c := range cases {
		if got := attributeCPU(c.frames); got != c.want {
			t.Errorf("%v: %s, want %s", c.frames, got, c.want)
		}
	}
	profiler := []string{"runtime/pprof.(*profileBuilder).appendLocsForStack", "runtime/pprof.profileWriter"}
	if !profilerFrames(profiler) || profilerFrames(cases[0].frames) {
		t.Error("profiler samples not told apart from the workload's")
	}
}

func burn(d time.Duration) uint64 {
	var x uint64 = 1
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

var burnSink uint64

func TestParseCPUProfile(t *testing.T) {
	p, err := startCPUProfile()
	if err != nil {
		t.Fatal(err)
	}
	burnSink = burn(300 * time.Millisecond)
	buckets, err := p.stop()
	if err != nil {
		t.Fatal(err)
	}
	if buckets["bench"] < 5 {
		t.Fatalf("profile attributed %v samples to the benchmark's own busy loop: %v", buckets["bench"], buckets)
	}
}
