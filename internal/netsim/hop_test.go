package netsim_test

import (
	"testing"
	"time"

	"polyraptor/internal/netsim"
	"polyraptor/internal/topology"
)

// TestIdleInterPodPathOneEventPerHop: one frame across an idle k=4 fat
// tree between pods crosses six links (NIC, edge, agg, core, agg,
// edge) and costs exactly six engine events, one delivery per hop,
// arriving after 6 x (12 µs serialization + 10 µs propagation).
func TestIdleInterPodPathOneEventPerHop(t *testing.T) {
	ft, err := topology.NewFatTree(4, netsim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var at time.Duration
	ft.Hosts[15].Deliver = func(p *netsim.Packet) { at = ft.Net.Now() }
	ft.Hosts[0].Send(&netsim.Packet{Kind: netsim.KindData, Size: netsim.DataSize, Src: 0, Dst: 15, Group: -1, Spray: true})
	ft.Net.Eng.Run()
	if want := 132 * time.Microsecond; at != want {
		t.Fatalf("arrived at %v, want %v", at, want)
	}
	if got := ft.Net.Eng.Processed(); got != 6 {
		t.Fatalf("6-hop idle path cost %d engine events, want 6", got)
	}
}
