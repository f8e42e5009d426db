package collective

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"alpacomm/internal/mesh"
	"alpacomm/internal/netsim"
)

// referenceBroadcastOrder is the pre-refactor map-based BroadcastOrder:
// receivers grouped per host in a map, the sender's host first, then the
// other hosts ascending, devices ascending within a host.
func referenceBroadcastOrder(c mesh.Topology, sender int, receivers []int) []int {
	byHost := map[int][]int{}
	for _, d := range receivers {
		h := c.HostOf(d)
		byHost[h] = append(byHost[h], d)
	}
	var hosts []int
	for h := range byHost {
		hosts = append(hosts, h)
	}
	sort.Ints(hosts)
	senderHost := c.HostOf(sender)
	ordered := make([]int, 0, len(hosts))
	for _, h := range hosts {
		if h == senderHost {
			ordered = append(ordered, h)
		}
	}
	for _, h := range hosts {
		if h != senderHost {
			ordered = append(ordered, h)
		}
	}
	chain := []int{sender}
	for _, h := range ordered {
		devs := byHost[h]
		sort.Ints(devs)
		chain = append(chain, devs...)
	}
	return chain
}

// referenceBroadcastChain is the pre-refactor BroadcastChain: a fresh
// Result map, an Ops slice and a chunk-size slice per call.
func referenceBroadcastChain(net *netsim.ClusterNet, label string, chain []int, bytes int64, chunks, seq int, deps ...netsim.OpID) (*Result, error) {
	if len(chain) < 2 {
		return nil, fmt.Errorf("collective: broadcast chain needs >= 2 devices, got %d", len(chain))
	}
	if err := validateDevices(net.Topo, chain); err != nil {
		return nil, err
	}
	if chunks < 1 {
		return nil, fmt.Errorf("collective: chunk count %d < 1", chunks)
	}
	if bytes < int64(chunks) {
		chunks = 1
	}
	sizes := chunkSizes(bytes, chunks)
	hops := len(chain) - 1
	res := &Result{DoneAt: map[int]netsim.OpID{}}
	prev := make([]netsim.OpID, hops)
	havePrev := false
	for i := 0; i < chunks; i++ {
		var upstream netsim.OpID
		haveUp := false
		for j := 0; j < hops; j++ {
			var d []netsim.OpID
			if haveUp {
				d = append(d, upstream)
			} else {
				d = append(d, deps...)
			}
			if havePrev {
				d = append(d, prev[j])
			}
			xfer := net.Transfer
			if i > 0 {
				xfer = net.StreamTransfer
			}
			lbl := netsim.Label{Prefix: label, Kind: netsim.LabelChunkHop, A: int32(i), B: int32(j)}
			id, err := xfer(lbl, chain[j], chain[j+1], sizes[i], seq, d...)
			if err != nil {
				return nil, err
			}
			res.Ops = append(res.Ops, id)
			prev[j] = id
			upstream = id
			haveUp = true
		}
		havePrev = true
	}
	for j := 0; j < hops; j++ {
		res.DoneAt[chain[j+1]] = prev[j]
	}
	return res, nil
}

// TestBroadcastOrderMatchesReference: the sort-based chain order equals
// the map-based one on random sender/receiver sets, including receivers
// on the sender's host, unsorted input and repeated devices.
func TestBroadcastOrderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	topos := []mesh.Topology{mesh.AWSP3Cluster(4), mesh.MixedP3DGXCluster(2, 2, 1)}
	var b Broadcaster
	for iter := 0; iter < 500; iter++ {
		c := topos[iter%len(topos)]
		sender := rng.Intn(c.NumDevices())
		receivers := make([]int, 1+rng.Intn(12))
		for i := range receivers {
			receivers[i] = rng.Intn(c.NumDevices())
		}
		want := referenceBroadcastOrder(c, sender, receivers)
		if got := b.Order(c, sender, receivers); !reflect.DeepEqual(got, want) {
			t.Fatalf("iter %d: Order(%d, %v) = %v, want %v", iter, sender, receivers, got, want)
		}
		if got := BroadcastOrder(c, sender, receivers); !reflect.DeepEqual(got, want) {
			t.Fatalf("iter %d: BroadcastOrder(%d, %v) = %v, want %v", iter, sender, receivers, got, want)
		}
	}
}

// TestAppendChainMatchesReference builds the fig. 3 broadcast (and
// chains with tiny messages, gating deps and chunk counts from 1 to 100)
// three ways — the pre-refactor reference, BroadcastChain and one reused
// Broadcaster's AppendChain — each on its own net. All three must yield
// the same Events() timeline; BroadcastChain must report the reference's
// Result, and AppendChain must append exactly the reference's AllDone()
// ops after whatever the caller's slice already held.
func TestAppendChainMatchesReference(t *testing.T) {
	var b Broadcaster
	for _, cfg := range []struct {
		a, devs int
		bytes   int64
		chunks  int
		gated   bool
	}{
		{4, 2, fig3Bytes, 100, false},
		{3, 4, fig3Bytes, 7, true},
		{2, 2, 3, 100, false}, // tiny message: collapses to one chunk
		{1, 1, fig3Bytes, 1, true},
	} {
		c := fig3Cluster(cfg.a+1, cfg.devs)
		// A receiver on the sender's host puts an NVLink hop in the chain.
		receivers := append(fig3Receivers(c), 1%cfg.devs)
		if cfg.devs == 1 {
			receivers = fig3Receivers(c)
		}
		chain := BroadcastOrder(c, 0, receivers)
		build := func(run func(net *netsim.ClusterNet, deps []netsim.OpID)) *netsim.ClusterNet {
			net := netsim.NewClusterNet(c)
			var deps []netsim.OpID
			if cfg.gated {
				deps = append(deps, net.MustTransfer(netsim.Plain("gate"), 1%c.NumDevices(), 0, 10, 0))
			}
			run(net, deps)
			if _, err := net.Run(); err != nil {
				t.Fatal(err)
			}
			return net
		}
		var want, got *Result
		refNet := build(func(net *netsim.ClusterNet, deps []netsim.OpID) {
			var err error
			if want, err = referenceBroadcastChain(net, "bc", chain, cfg.bytes, cfg.chunks, 3, deps...); err != nil {
				t.Fatal(err)
			}
		})
		wrapNet := build(func(net *netsim.ClusterNet, deps []netsim.OpID) {
			var err error
			if got, err = BroadcastChain(net, "bc", chain, cfg.bytes, cfg.chunks, 3, deps...); err != nil {
				t.Fatal(err)
			}
		})
		prefix := []netsim.OpID{-7, -8}
		var appended []netsim.OpID
		appendNet := build(func(net *netsim.ClusterNet, deps []netsim.OpID) {
			var err error
			if appended, err = b.AppendChain(append([]netsim.OpID(nil), prefix...), net, "bc", chain, cfg.bytes, cfg.chunks, 3, deps); err != nil {
				t.Fatal(err)
			}
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("A=%d B=%d: BroadcastChain result %+v, reference %+v", cfg.a, cfg.devs, got, want)
		}
		if wantDone := append(append([]netsim.OpID(nil), prefix...), want.AllDone()...); !reflect.DeepEqual(appended, wantDone) {
			t.Fatalf("A=%d B=%d: AppendChain = %v, want prefix + AllDone = %v", cfg.a, cfg.devs, appended, wantDone)
		}
		wantEvents := refNet.Sim.Events()
		if !reflect.DeepEqual(wrapNet.Sim.Events(), wantEvents) {
			t.Fatalf("A=%d B=%d: BroadcastChain timeline differs from the reference", cfg.a, cfg.devs)
		}
		if !reflect.DeepEqual(appendNet.Sim.Events(), wantEvents) {
			t.Fatalf("A=%d B=%d: AppendChain timeline differs from the reference", cfg.a, cfg.devs)
		}
	}
}

// TestAppendChainValidationMatchesReference: every malformed chain fails
// with the reference's exact error, leaves the caller's slice unextended,
// and does not poison the reused Broadcaster for the next valid chain.
func TestAppendChainValidationMatchesReference(t *testing.T) {
	c := fig3Cluster(2, 2)
	var b Broadcaster
	for _, tc := range []struct {
		chain  []int
		chunks int
	}{
		{[]int{0}, 4},
		{nil, 4},
		{[]int{0, 0}, 4},
		{[]int{0, 2, 3, 2}, 4},
		{[]int{0, 2}, 0},
		{[]int{0, 99}, 4},
		{[]int{0, -1}, 4},
		{[]int{0, 2, 2, 99}, 4}, // the duplicate comes first
		{[]int{0, 99, 2, 2}, 4}, // the invalid device comes first
	} {
		_, wantErr := referenceBroadcastChain(netsim.NewClusterNet(c), "bc", tc.chain, 100, tc.chunks, 0)
		if wantErr == nil {
			t.Fatalf("chain %v: reference accepted it", tc.chain)
		}
		_, err := BroadcastChain(netsim.NewClusterNet(c), "bc", tc.chain, 100, tc.chunks, 0)
		if err == nil || err.Error() != wantErr.Error() {
			t.Errorf("chain %v: BroadcastChain error %v, want %v", tc.chain, err, wantErr)
		}
		done := []netsim.OpID{5}
		got, err := b.AppendChain(done, netsim.NewClusterNet(c), "bc", tc.chain, 100, tc.chunks, 0, nil)
		if err == nil || err.Error() != wantErr.Error() {
			t.Errorf("chain %v: AppendChain error %v, want %v", tc.chain, err, wantErr)
		}
		if !reflect.DeepEqual(got, done) {
			t.Errorf("chain %v: failed AppendChain returned %v, want the input %v", tc.chain, got, done)
		}
		// The same Broadcaster still builds a valid chain correctly: the
		// device stamps of the failed call must not leak into it.
		ok, err := b.AppendChain(nil, netsim.NewClusterNet(c), "bc", []int{0, 2, 3}, 100, 4, 0, nil)
		if err != nil || len(ok) != 2 {
			t.Fatalf("after chain %v: valid chain gave %v, %v", tc.chain, ok, err)
		}
	}
}
