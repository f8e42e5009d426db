package resharding

import (
	"fmt"
	"sort"

	"alpacomm/internal/collective"
	"alpacomm/internal/mesh"
	"alpacomm/internal/netsim"
)

// buildUnitOps registers the communication ops of one unit task on the
// bound net under the plan's strategy and appends its completion ops (one
// per receiver-side endpoint) to the builder's completion arena, returning
// the extended arena; they chain Eq. 3 exclusivity between unit tasks.
func (b *PlanBuilder) buildUnitOps(opts Options, idx, sender int, receivers []int, elements, bytes int64, seq int, deps []netsim.OpID) ([]netsim.OpID, error) {
	done, net := b.done, b.net
	label := b.unitLabel(idx).unit
	switch opts.Strategy {
	case SendRecv:
		return buildSendRecv(done, net, label, sender, receivers, bytes, seq, deps)
	case LocalAllGather:
		return buildLocalAllGather(done, net, label, sender, receivers, bytes, seq, deps)
	case GlobalAllGather:
		return buildGlobalAllGather(done, net, label, sender, receivers, bytes, seq, deps, false)
	case Broadcast:
		return b.buildBroadcast(done, opts, idx, sender, receivers, bytes, seq, deps)
	case Alpa:
		return buildAlpa(done, net, label, sender, receivers, elements, bytes, seq, deps)
	case Signal:
		return buildSendRecv(done, net, label, sender, receivers, 1, seq, deps)
	default:
		return done, fmt.Errorf("resharding: unknown strategy %v", opts.Strategy)
	}
}

// buildSendRecv: one full copy per receiver device, serialized on the
// sender's resources (Fig. 3a).
func buildSendRecv(done []netsim.OpID, net *netsim.ClusterNet, label string, sender int, receivers []int, bytes int64, seq int, deps []netsim.OpID) ([]netsim.OpID, error) {
	for _, dst := range receivers {
		lbl := netsim.Label{Prefix: label, Kind: netsim.LabelSendRecv, A: int32(dst)}
		id, err := net.Transfer(lbl, sender, dst, bytes, seq, deps...)
		if err != nil {
			return done, err
		}
		done = append(done, id)
	}
	return done, nil
}

// buildLocalAllGather: per receiver host, scatter 1/B to each device and
// all-gather locally (Fig. 3b). Receivers on the sender's own host get
// direct NVLink copies.
func buildLocalAllGather(done []netsim.OpID, net *netsim.ClusterNet, label string, sender int, receivers []int, bytes int64, seq int, deps []netsim.OpID) ([]netsim.OpID, error) {
	c := net.Topo
	for _, group := range groupByHost(c, receivers) {
		if c.HostOf(group[0]) == c.HostOf(sender) || len(group) == 1 {
			var err error
			if done, err = buildSendRecv(done, net, label, sender, group, bytes, seq, deps); err != nil {
				return done, err
			}
			continue
		}
		parts := splitBytes(bytes, len(group))
		startDeps := map[int][]netsim.OpID{}
		for i, dst := range group {
			lbl := netsim.Label{Prefix: label, Kind: netsim.LabelScatter, A: int32(dst)}
			id, err := net.Transfer(lbl, sender, dst, parts[i], seq, deps...)
			if err != nil {
				return done, err
			}
			startDeps[dst] = []netsim.OpID{id}
		}
		res, err := collective.RingAllGather(net, label+"/lag", group, bytes, seq, startDeps)
		if err != nil {
			return done, err
		}
		done = append(done, res.AllDone()...)
	}
	return done, nil
}

// buildGlobalAllGather: scatter 1/(A·B) to every receiver, then one global
// ring all-gather (Fig. 3c). With barrier=true the all-gather waits for the
// whole scatter phase (separate launches, the Alpa baseline's behaviour);
// otherwise each device's part of the all-gather starts as soon as its own
// chunk arrives.
func buildGlobalAllGather(done []netsim.OpID, net *netsim.ClusterNet, label string, sender int, receivers []int, bytes int64, seq int, deps []netsim.OpID, barrier bool) ([]netsim.OpID, error) {
	if len(receivers) == 1 {
		return buildSendRecv(done, net, label, sender, receivers, bytes, seq, deps)
	}
	ring := collective.RingOrder(net.Topo, receivers)
	parts := splitBytes(bytes, len(ring))
	startDeps := map[int][]netsim.OpID{}
	var scatterOps []netsim.OpID
	for i, dst := range ring {
		lbl := netsim.Label{Prefix: label, Kind: netsim.LabelScatter, A: int32(dst)}
		id, err := net.Transfer(lbl, sender, dst, parts[i], seq, deps...)
		if err != nil {
			return done, err
		}
		scatterOps = append(scatterOps, id)
		startDeps[dst] = []netsim.OpID{id}
	}
	if barrier {
		for _, dst := range ring {
			startDeps[dst] = scatterOps
		}
	}
	res, err := collective.RingAllGather(net, label+"/gag", ring, bytes, seq, startDeps)
	if err != nil {
		return done, err
	}
	return append(done, res.AllDone()...), nil
}

// buildBroadcast: the paper's pipelined broadcast chain (Fig. 3d). On
// clusters with several NICs per host, the unit task is divided into one
// sub-task per NIC (the §3.1 future-work extension): each part travels its
// own chain over a distinct NIC, multiplying cross-host bandwidth. The ops
// go to the bound net; the chain, the NIC views and the labels all come
// from the builder's scratch, so a warm builder registers a broadcast
// without allocating.
//
//alpacomm:hotpath
func (b *PlanBuilder) buildBroadcast(done []netsim.OpID, opts Options, idx, sender int, receivers []int, bytes int64, seq int, deps []netsim.OpID) ([]netsim.OpID, error) {
	net := b.net
	// chain is the Broadcaster's order buffer; AppendChain leaves it
	// intact, so every NIC part below walks the same chain.
	chain := b.bc.Order(net.Topo, sender, receivers)
	chunks := opts.Chunks
	if chunks <= 0 {
		chunks = collective.DefaultChunks(bytes)
	}
	nics := chainNICs(net.Topo, chain)
	if nics == 1 || bytes < int64(nics) {
		return b.bc.AppendChain(done, net, b.bcLabel(idx), chain, bytes, chunks, seq, deps)
	}
	perNICChunks := (chunks + nics - 1) / nics
	if perNICChunks < 1 {
		perNICChunks = 1
	}
	for k := 0; k < nics; k++ {
		// Part k spans the floor boundaries k·bytes/nics .. (k+1)·bytes/nics,
		// the split splitBytes makes.
		part := int64(k+1)*bytes/int64(nics) - int64(k)*bytes/int64(nics)
		var err error
		if done, err = b.bc.AppendChain(done, b.onNIC(k), b.nicLabel(idx, k), chain, part, perNICChunks, seq, deps); err != nil {
			return done, err
		}
	}
	return done, nil
}

// buildAlpa models the Alpa/Megatron-LM all-gather baseline: per-host
// all-gather when the receivers sit on one host, global all-gather with a
// scatter barrier otherwise — but only when the slice divides evenly over
// the receivers; uneven partitions fall back to naive send/recv (§5.1.1:
// "Alpa cannot handle uneven partition").
func buildAlpa(done []netsim.OpID, net *netsim.ClusterNet, label string, sender int, receivers []int, elements, bytes int64, seq int, deps []netsim.OpID) ([]netsim.OpID, error) {
	c := net.Topo
	groups := groupByHost(c, receivers)
	multiHost := len(groups) > 1
	if !multiHost {
		if elements%int64(len(receivers)) != 0 {
			return buildSendRecv(done, net, label, sender, receivers, bytes, seq, deps)
		}
		return buildLocalAllGather(done, net, label, sender, receivers, bytes, seq, deps)
	}
	if elements%int64(len(receivers)) != 0 {
		return buildSendRecv(done, net, label, sender, receivers, bytes, seq, deps)
	}
	return buildGlobalAllGather(done, net, label, sender, receivers, bytes, seq, deps, true)
}

// chainNICs returns the number of NICs a broadcast chain can stripe over:
// the smallest NIC count among the hosts on the chain, so every part of a
// split unit task has a dedicated NIC on every hop.
func chainNICs(t mesh.Topology, chain []int) int {
	nics := 0
	for _, d := range chain {
		if n := t.NICCount(t.HostOf(d)); nics == 0 || n < nics {
			nics = n
		}
	}
	if nics < 1 {
		nics = 1
	}
	return nics
}

// groupByHost splits devices into per-host groups, hosts ascending,
// devices ascending within a host.
func groupByHost(c mesh.Topology, devices []int) [][]int {
	byHost := map[int][]int{}
	for _, d := range devices {
		byHost[c.HostOf(d)] = append(byHost[c.HostOf(d)], d)
	}
	var hosts []int
	for h := range byHost {
		hosts = append(hosts, h)
	}
	sort.Ints(hosts)
	out := make([][]int, 0, len(hosts))
	for _, h := range hosts {
		g := byHost[h]
		sort.Ints(g)
		out = append(out, g)
	}
	return out
}

// splitBytes divides bytes into n near-even parts.
func splitBytes(bytes int64, n int) []int64 {
	out := make([]int64, n)
	prev := int64(0)
	for j := 1; j <= n; j++ {
		b := int64(j) * bytes / int64(n)
		out[j-1] = b - prev
		prev = b
	}
	return out
}
