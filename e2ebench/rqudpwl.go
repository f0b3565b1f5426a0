package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"time"

	"polyraptor/internal/rqudp"
)

// rqudp-loopback: the `rqtool` / examples/quickstart path on real
// sockets. Two in-process rqudp.Servers serve one seed-derived 4 MB
// object (16 blocks of 256 x 1 KB symbols) on 127.0.0.1; one client
// socket fetches it from both, back to back (a closed loop with one
// client). Traffic crosses the loopback interface, not a real link.
const (
	rqObjectBytes  = 4 << 20
	rqServerCount  = 2
	rqSetupReps    = 9
	rqMinFetches   = 100
	rqBatch        = 20 // fetches per untraced repetition of a traced run
	rqFetchTimeout = 10 * time.Second
)

var rqudpWorkload = benchWorkload{
	name: "rqudp-loopback",
	sizes: func() map[string]any {
		c := rqConfig()
		return map[string]any{
			"object_bytes": rqObjectBytes, "servers": rqServerCount, "symbol_bytes": c.SymbolSize,
			"max_block_k": c.MaxBlockK, "codec_workers": c.Workers, "clients": 1, "min_fetches": rqMinFetches,
		}
	},
	timed:  rqTimed,
	traced: rqTraced,
}

func rqConfig() rqudp.Config {
	c := rqudp.DefaultConfig()
	c.Workers = 1
	return c
}

// rqObject is the served object: seed-derived random bytes.
func rqObject(seed int64) []byte {
	b := make([]byte, rqObjectBytes)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// rqFleet is the servers of one run, each serving on its own socket.
type rqFleet struct {
	srvs  []*rqudp.Server
	addrs []net.Addr
	wg    sync.WaitGroup
}

// startFleet encodes the object once per server and starts serving.
func startFleet(obj []byte, tr *tracer, parent int) (*rqFleet, error) {
	f := &rqFleet{}
	for i := 0; i < rqServerCount; i++ {
		conn, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			f.close()
			return nil, err
		}
		sp := tr.begin("rqudp.NewServer", parent)
		srv, err := rqudp.NewServer(conn, obj, rqConfig())
		tr.end(sp)
		if err != nil {
			conn.Close()
			f.close()
			return nil, err
		}
		f.srvs = append(f.srvs, srv)
		f.addrs = append(f.addrs, srv.Addr())
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			_ = srv.Serve() // returns nil on Close; a socket error ends this server's fetches, which the checks count
		}()
	}
	return f, nil
}

// close stops every server and waits until each Serve has returned.
func (f *rqFleet) close() {
	for _, s := range f.srvs {
		s.Close()
	}
	f.wg.Wait()
}

// rqSetup builds the servers rqSetupReps times, keeping the last fleet;
// it returns the median set-up CPU time (encoding plus socket set-up).
func rqSetup(obj []byte, tr *tracer, parent int) (*rqFleet, float64, error) {
	var times []float64
	var fleet *rqFleet
	for i := 0; i < rqSetupReps; i++ {
		if fleet != nil {
			fleet.close()
		}
		runtime.GC()
		c0 := cpuTime()
		f, err := startFleet(obj, tr, parent)
		times = append(times, (cpuTime() - c0).Seconds())
		if err != nil {
			return nil, 0, err
		}
		fleet = f
	}
	return fleet, median(times), nil
}

// rqClient is the one client socket and its flow counter.
type rqClient struct {
	conn net.PacketConn
	flow uint32
	obj  []byte
}

// fetch makes one multi-source fetch and checks the bytes.
func (c *rqClient) fetch(f *rqFleet, tr *tracer, parent int) (time.Duration, rqudp.FetchStats, error) {
	c.flow++
	ctx, cancel := context.WithTimeout(context.Background(), rqFetchTimeout)
	defer cancel()
	sp := tr.begin("rqudp.FetchMultiSourceStats", parent)
	t0 := time.Now()
	got, st, err := rqudp.FetchMultiSourceStats(ctx, c.conn, f.addrs, c.flow, rqConfig())
	d := time.Since(t0)
	tr.end(sp)
	if err != nil {
		return d, st, fmt.Errorf("fetch flow %d: %w", c.flow, err)
	}
	return d, st, checkFetched(got, c.obj, c.flow)
}

// checkFetched holds a fetched object to the served one, byte for byte.
func checkFetched(got, want []byte, flow uint32) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("fetch flow %d: object differs from the served one", flow)
	}
	return nil
}

// withFleet sets up servers and a client, runs fn, and tears both down.
func withFleet(e *env, fn func(f *rqFleet, c *rqClient, setup float64)) {
	obj := rqObject(e.seed)
	root := e.tr.begin("rqudp.setup", 0)
	fleet, setup, err := rqSetup(obj, e.tr, root)
	e.tr.end(root)
	if err != nil {
		e.chk.record(err)
		return
	}
	defer fleet.close()
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		e.chk.record(err)
		return
	}
	defer conn.Close()
	fn(fleet, &rqClient{conn: conn, obj: obj}, setup)
}

// keepFetching reports whether the closed loop should make another
// fetch: until the deadline and at least rqMinFetches successes, but
// never past a few failures or a minute beyond the deadline.
func keepFetching(e *env, done int, deadline time.Time) bool {
	if e.chk.failed > 3 || time.Now().After(deadline.Add(time.Minute)) {
		return false
	}
	return done < rqMinFetches || time.Now().Before(deadline)
}

func rqTimed(e *env, rep *report) {
	withFleet(e, func(f *rqFleet, c *rqClient, setup float64) {
		var (
			lat      []float64
			ms0, ms1 runtime.MemStats
		)
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		t0, c0 := time.Now(), cpuTime()
		deadline := t0.Add(e.budget)
		for keepFetching(e, len(lat), deadline) {
			d, _, err := c.fetch(f, nil, 0)
			e.chk.record(err)
			if err != nil {
				continue
			}
			lat = append(lat, d.Seconds())
		}
		cpu := (cpuTime() - c0).Seconds()
		if len(lat) == 0 {
			return
		}
		runtime.ReadMemStats(&ms1)
		rep.events["fetches"] = uint64(len(lat))
		rep.set("setup_s", setup)
		rep.set("xfers_per_cpu_s", float64(len(lat))/cpu)
		rep.set("alloc_mb", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6/float64(len(lat)))
	})
}

func rqTraced(e *env, rep *report) {
	withFleet(e, func(f *rqFleet, c *rqClient, _ float64) {
		// Untraced batches first: the wall-clock fetch latencies, heap
		// allocations per symbol, GC cycles and the CPU baseline.
		var (
			plainLat, allocsPerSym, batchCPU, gcs []float64
			ms0, ms1                              runtime.MemStats
		)
		deadline := time.Now().Add(e.budget / 3)
		for len(plainLat) < rqMinFetches || time.Now().Before(deadline) {
			runtime.ReadMemStats(&ms0)
			c0 := cpuTime()
			syms := 0
			for i := 0; i < rqBatch; i++ {
				d, st, err := c.fetch(f, nil, 0)
				e.chk.record(err)
				if err != nil {
					return
				}
				plainLat = append(plainLat, d.Seconds())
				syms += st.Symbols + st.Duplicates
			}
			batchCPU = append(batchCPU, (cpuTime()-c0).Seconds()/rqBatch)
			runtime.ReadMemStats(&ms1)
			allocsPerSym = append(allocsPerSym, float64(ms1.Mallocs-ms0.Mallocs)/float64(syms))
			gcs = append(gcs, float64(ms1.NumGC-ms0.NumGC)/rqBatch)
		}
		plain := plainStats{cpu: median(batchCPU), gc: median(gcs)}

		prof, err := startCPUProfile()
		if err != nil {
			e.chk.record(err)
			return
		}
		var fresh, dups, retries, n int
		deadline = time.Now().Add(e.budget - e.budget/3)
		root := e.tr.begin("rqudp.fetches", 0)
		c0 := cpuTime()
		for keepFetching(e, n, deadline) {
			_, st, err := c.fetch(f, e.tr, root)
			e.chk.record(err)
			if err != nil {
				continue
			}
			n++
			fresh += st.Symbols
			dups += st.Duplicates
			retries += st.Retries
		}
		tracedCPU := (cpuTime() - c0).Seconds()
		e.tr.end(root)
		cpu, err := prof.stop()
		e.chk.record(err)
		if n == 0 {
			return
		}
		source := float64((rqObjectBytes + rqConfig().SymbolSize - 1) / rqConfig().SymbolSize)
		rep.set("raptorq.encode_s", median(e.tr.durations("rqudp.NewServer")))
		rep.set("rqudp.symbols", float64(fresh)/float64(n))
		rep.set("rqudp.duplicates", float64(dups)/float64(n))
		rep.set("rqudp.retries", float64(retries))
		rep.set("rqudp.useful_frac", source*float64(n)/float64(fresh+dups))
		rep.set("rqudp.allocs_per_symbol", median(allocsPerSym))
		rep.set("rqudp.fetch_p50_ms", 1e3*quantile(plainLat, 0.5))
		rep.set("rqudp.fetch_p90_ms", 1e3*quantile(plainLat, 0.9))
		finishTraced(e, rep, plain, tracedCPU/float64(n), cpu)
	})
}
