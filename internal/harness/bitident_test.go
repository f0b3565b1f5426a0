package harness

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"polyraptor/internal/stats"
	"polyraptor/internal/store"
)

// digestOf folds the values run adds, float64 bit patterns and
// integers, into one FNV-64a value. Hashing the raw bits (not a
// rounded rendering) makes the digest change on any difference in any
// output, however small.
func digestOf(run func(add func(uint64))) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	run(func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	})
	return h.Sum64()
}

func addFloats(add func(uint64), xs []float64) {
	add(uint64(len(xs)))
	for _, x := range xs {
		add(math.Float64bits(x))
	}
}

func addSummary(add func(uint64), s stats.Summary) {
	add(uint64(s.N))
	addFloats(add, []float64{s.Mean, s.Min, s.P50, s.P95, s.P99, s.Max})
}

func addXfers(add func(uint64), xs []store.Xfer) {
	add(uint64(len(xs)))
	for _, x := range xs {
		add(uint64(x.Object))
		add(uint64(x.Client))
		add(uint64(x.Bytes))
		add(uint64(x.Start))
		add(uint64(x.End))
	}
}

// TestOutputsBitIdenticalToPinnedDigests pins the exact outputs of the
// figure, incast, chaos and storage entry points. A change to the event
// engine, the fabric or a transport that alters the order in which
// simultaneous events run, or any arithmetic on the path, moves at
// least one digest. A change meant to be a pure speedup must leave
// every digest as it is; a change that alters results on purpose
// re-pins the digests and says why.
func TestOutputsBitIdenticalToPinnedDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every figure entry point at bench scale")
	}
	if runtime.GOARCH != "amd64" {
		// The compiler fuses x*y+z into one rounding on arm64, ppc64
		// and s390x, so float results may differ in the last bit there.
		t.Skip("digests are pinned on amd64")
	}
	incast := BenchIncastOptions()
	// A quarter of the k=4 core links blackholed at 500 µs, never healed.
	blackhole := testChaosOptions()
	cases := []struct {
		name string
		want uint64
		run  func(add func(uint64))
	}{
		{"fig1a-rq-r1", 0x19ed806039995f62, func(add func(uint64)) { addFloats(add, RunFig1RQ(BenchScale(), PatternMulticast, 1)) }},
		{"fig1a-rq-r3", 0x72e37c02cda54787, func(add func(uint64)) { addFloats(add, RunFig1RQ(BenchScale(), PatternMulticast, 3)) }},
		{"fig1a-tcp-r3", 0x3601631d55c77b65, func(add func(uint64)) { addFloats(add, RunFig1TCP(BenchScale(), PatternMulticast, 3)) }},
		{"fig1b-rq-r3", 0x739450c4d4bf1e4d, func(add func(uint64)) { addFloats(add, RunFig1RQ(BenchScale(), PatternMultiSource, 3)) }},
		{"fig1b-tcp-r3", 0xa814ce3e71ab5b04, func(add func(uint64)) { addFloats(add, RunFig1TCP(BenchScale(), PatternMultiSource, 3)) }},
		{"incast-k4-12", 0x309e6756978b7348, func(add func(uint64)) {
			for _, b := range incast.BytesPerSender {
				addFloats(add, []float64{
					RunIncastRQ(incast, 12, b, 1),
					RunIncastTCP(incast, 12, b, 1),
					RunIncastDCTCP(incast, 12, b, 1),
				})
			}
		}},
		{"chaos-core-blackhole", 0x962fd4d4b6e712e7, func(add func(uint64)) {
			for _, be := range []store.BackendKind{store.BackendPolyraptor, store.BackendTCP, store.BackendDCTCP} {
				r := RunChaos(blackhole, be, 1)
				for _, v := range []int64{int64(r.Flows), int64(r.Completed), int64(r.Stalled), int64(r.FaultTargets),
					r.RouteDrops, r.LinkDrops, r.QueueDrops, r.Trimmed} {
					add(uint64(v))
				}
				addSummary(add, r.FCT)
				addFloats(add, []float64{r.GoodputGbps})
			}
		}},
		{"storage-short", 0x96b7155a0463c11e, func(add func(uint64)) {
			runs, err := RunStorageCluster(ShortStorageOptions())
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range runs {
				res := r.Result
				addXfers(add, res.Gets)
				addXfers(add, res.Puts)
				addXfers(add, res.Repairs)
				for _, v := range []int64{int64(res.SkippedGets), int64(res.SkippedPuts), int64(res.Makespan),
					int64(res.Recovery.Repaired), int64(res.Recovery.CompletedAt)} {
					add(uint64(v))
				}
				addFloats(add, r.Result.GetGoodputs())
				addFloats(add, r.Result.PutGoodputs())
			}
		}},
	}
	for _, c := range cases {
		if got := digestOf(c.run); got != c.want {
			t.Errorf("%s: digest %#016x, pinned %#016x", c.name, got, c.want)
		}
	}
}
