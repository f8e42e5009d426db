package resharding

import (
	"fmt"
	"strconv"
	"sync"

	"alpacomm/internal/collective"
	"alpacomm/internal/mesh"
	"alpacomm/internal/netsim"
)

// SimResult reports the simulated execution of a plan.
type SimResult struct {
	// Makespan is the completion time of the last unit task, seconds.
	Makespan float64
	// EffectiveGbps is the paper's figure-of-merit: total tensor bits
	// divided by the makespan (Figs. 5, 6, 8).
	EffectiveGbps float64
	// NumOps is the number of transfer ops issued.
	NumOps int
	// Events is the full op trace, for timeline rendering.
	Events []netsim.Event
	// Utilization maps resource name to busy fraction.
	Utilization map[string]float64
}

// PlanBuilder is a reusable simulation context: a ClusterNet whose op and
// resource arenas are rewound (not freed) between plans, plus the scratch
// state of Eq. 3 exclusivity chaining and of the broadcast builder. One
// builder simulates any number of plans sequentially with near-zero
// steady-state allocation; it is not safe for concurrent use.
// Plan.Simulate draws builders from an internal sync.Pool, so autotune
// workers and serving-cache misses replay warm arenas automatically;
// embedders that simulate many plans on one goroutine can hold a builder
// explicitly via AcquirePlanBuilder.
type PlanBuilder struct {
	net *netsim.ClusterNet
	// nicNets[k] is net's view onto each host's k-th NIC, made on first
	// use and kept for as long as net is.
	nicNets []*netsim.ClusterNet
	// lastSend[h] / lastRecv[h] hold the completion ops of the previous
	// unit task that occupied host h's send / receive side (Eq. 3), as
	// windows into done.
	lastSend [][]netsim.OpID
	lastRecv [][]netsim.OpID
	// done is the simulation's completion-op arena: each unit appends its
	// completion ops and the lastSend/lastRecv windows point into it. It
	// only grows while a plan is simulated, so no window is ever
	// overwritten, and it rewinds in bind together with the windows.
	done      []netsim.OpID
	deps      []netsim.OpID
	recvHosts []int
	bc        collective.Broadcaster
	// labels memoizes each unit's op-label prefixes so repeated
	// simulations on a pooled builder stop re-rendering the same strings.
	labels []unitLabels
}

// unitLabels are the op-label prefixes of one unit index.
type unitLabels struct {
	unit string   // "u<idx>"
	bc   string   // "u<idx>/bc"; empty until first used
	nic  []string // nic[k] is "u<idx>/bc.nic<k>"
}

// unitLabel returns the memoized prefixes of unit idx.
func (b *PlanBuilder) unitLabel(idx int) *unitLabels {
	for idx >= len(b.labels) {
		b.labels = append(b.labels, unitLabels{unit: "u" + strconv.Itoa(len(b.labels))})
	}
	return &b.labels[idx]
}

// bcLabel returns the memoized single-chain broadcast prefix of unit idx.
func (b *PlanBuilder) bcLabel(idx int) string {
	l := b.unitLabel(idx)
	if l.bc == "" {
		l.bc = l.unit + "/bc"
	}
	return l.bc
}

// nicLabel returns the memoized prefix of unit idx's broadcast part on
// NIC k.
func (b *PlanBuilder) nicLabel(idx, k int) string {
	l := b.unitLabel(idx)
	for k >= len(l.nic) {
		l.nic = append(l.nic, l.unit+"/bc.nic"+strconv.Itoa(len(l.nic)))
	}
	return l.nic[k]
}

// onNIC returns the bound net's view onto NIC k.
func (b *PlanBuilder) onNIC(k int) *netsim.ClusterNet {
	for k >= len(b.nicNets) {
		b.nicNets = append(b.nicNets, b.net.OnNIC(len(b.nicNets)))
	}
	return b.nicNets[k]
}

// NewPlanBuilder returns an empty builder.
func NewPlanBuilder() *PlanBuilder {
	return &PlanBuilder{}
}

var planBuilderPool = sync.Pool{New: func() interface{} { return NewPlanBuilder() }}

// AcquirePlanBuilder takes a builder from the shared pool.
func AcquirePlanBuilder() *PlanBuilder {
	return planBuilderPool.Get().(*PlanBuilder)
}

// Release returns the builder to the shared pool.
func (b *PlanBuilder) Release() {
	planBuilderPool.Put(b)
}

// bind points the builder's net at the topology, reusing the existing
// arenas when the topology is unchanged and rebuilding them otherwise, and
// rewinds the Eq. 3 windows and the completion arena.
func (b *PlanBuilder) bind(topo mesh.Topology) *netsim.ClusterNet {
	if b.net != nil && mesh.SameTopology(b.net.Topo, topo) {
		b.net.Reset()
	} else {
		b.net = netsim.NewClusterNet(topo)
		b.nicNets = b.nicNets[:0]
	}
	b.lastSend = resetWindows(b.lastSend, topo.HostCount())
	b.lastRecv = resetWindows(b.lastRecv, topo.HostCount())
	b.done = b.done[:0]
	return b.net
}

// resetWindows returns w resized to n hosts with every window empty.
func resetWindows(w [][]netsim.OpID, n int) [][]netsim.OpID {
	if cap(w) < n {
		return make([][]netsim.OpID, n)
	}
	w = w[:n]
	clear(w)
	return w
}

// window returns host h's window. A host outside the topology (the host
// of an invalid device, which no successfully built unit touches) has
// none.
func window(w [][]netsim.OpID, h int) []netsim.OpID {
	if h < 0 || h >= len(w) {
		return nil
	}
	return w[h]
}

// setWindow records ops as host h's window, ignoring hosts outside the
// topology.
func setWindow(w [][]netsim.OpID, h int, ops []netsim.OpID) {
	if h >= 0 && h < len(w) {
		w[h] = ops
	}
}

// Simulate times the plan on the cluster's network model. Unit tasks that
// share a sender host (send side) or a receiver host (receive side) are
// serialized in plan order per Eq. 3; everything else proceeds in parallel
// at chunk granularity.
func (p *Plan) Simulate() (*SimResult, error) {
	b := AcquirePlanBuilder()
	defer b.Release()
	return p.SimulateWith(b)
}

// SimulateNoTrace is Simulate without rendering the Events timeline or the
// Utilization report (both nil in the result). Timing fields are identical
// to Simulate's; rendering is the only per-op string work left in the
// simulation path, so sweeps that only compare makespans — autotune trials,
// load tests — use this to stay allocation-free.
func (p *Plan) SimulateNoTrace() (*SimResult, error) {
	b := AcquirePlanBuilder()
	defer b.Release()
	return p.simulateWith(b, false)
}

// SimulateWith is Simulate on an explicitly held builder, for callers that
// simulate many plans on one goroutine and want to keep the arena warm
// without round-tripping the pool.
func (p *Plan) SimulateWith(b *PlanBuilder) (*SimResult, error) {
	return p.simulateWith(b, true)
}

//alpacomm:hotpath
func (p *Plan) simulateWith(b *PlanBuilder, trace bool) (*SimResult, error) {
	cluster := p.Task.Src.Mesh.Topo
	net := b.bind(cluster)
	for pos, idx := range p.Order {
		u := p.Task.Units[idx]
		sender, ok := p.SenderOf[idx]
		if !ok {
			return nil, fmt.Errorf("resharding: no sender assigned for unit %d", idx)
		}
		senderHost := cluster.HostOf(sender)
		recvHosts := p.Task.AppendReceiverHosts(b.recvHosts[:0], u)
		b.recvHosts = recvHosts
		deps := append(b.deps[:0], window(b.lastSend, senderHost)...)
		for _, h := range recvHosts {
			deps = append(deps, window(b.lastRecv, h)...)
		}
		b.deps = deps
		start := len(b.done)
		done, err := b.buildUnitOps(p.Opts, idx, sender, u.Receivers,
			u.Slice.NumElements(), u.Bytes(p.Task.DType), pos, deps)
		if err != nil {
			return nil, fmt.Errorf("resharding: unit %d: %v", idx, err)
		}
		b.done = done
		unit := done[start:len(done):len(done)]
		setWindow(b.lastSend, senderHost, unit)
		for _, h := range recvHosts {
			setWindow(b.lastRecv, h, unit)
		}
	}
	makespan, err := net.Run()
	if err != nil {
		return nil, err
	}
	res := &SimResult{
		Makespan: makespan,
		NumOps:   net.Sim.NumOps(),
	}
	if trace {
		res.Events = net.Sim.Events()
		res.Utilization = net.Sim.Utilization()
	}
	if makespan > 0 {
		res.EffectiveGbps = float64(p.Task.TotalBytes()) * 8 / makespan / 1e9
	}
	return res, nil
}
