package main

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"

	"alpacomm/internal/mesh"
	"alpacomm/internal/resharding"
	"alpacomm/internal/service"
	"alpacomm/internal/sharding"
	"alpacomm/internal/tensor"
)

// registry resolves topology names for the benchmark's own parses; it is
// the preset registry planserver serves from.
var registry = mesh.DefaultRegistry()

// buildTopology resolves a request's topology and fault overlay.
func buildTopology(req *service.PlanRequest) (base, topo mesh.Topology, err error) {
	base, err = registry.Build(req.Topology.Name, mesh.TopologyParams{
		Hosts: req.Topology.Hosts, Oversubscription: req.Topology.Oversubscription,
	})
	if err != nil || req.Faults == nil {
		return base, base, err
	}
	f, err := mesh.NewFaulted(base, faultSet(req.Faults))
	return base, f, err
}

// faultSet converts a wire overlay; the workloads never use named
// scenarios.
func faultSet(fr *service.FaultsRef) mesh.FaultSet {
	var fs mesh.FaultSet
	for _, l := range fr.Links {
		fs.Links = append(fs.Links, mesh.LinkFault{A: l.A, B: l.B, Down: l.Down,
			BandwidthScale: l.BandwidthScale, ExtraLatency: l.ExtraLatencySeconds})
	}
	for _, h := range fr.Hosts {
		fs.Hosts = append(fs.Hosts, mesh.HostFault{Host: h.Host, NICScale: h.NICScale, IntraScale: h.IntraScale})
	}
	return fs
}

// decompose builds a request's task on a resolved topology.
func decompose(req *service.PlanRequest, topo mesh.Topology) (*sharding.Task, error) {
	shape, err := tensor.NewShape(req.Shape...)
	if err != nil {
		return nil, err
	}
	dt, err := service.ParseDType(req.DType)
	if err != nil {
		return nil, err
	}
	src, err := mesh.ParseSlice(topo, req.Src.Mesh)
	if err != nil {
		return nil, err
	}
	dst, err := mesh.ParseSlice(topo, req.Dst.Mesh)
	if err != nil {
		return nil, err
	}
	srcSpec, err := sharding.Parse(req.Src.Spec)
	if err != nil {
		return nil, err
	}
	dstSpec, err := sharding.Parse(req.Dst.Spec)
	if err != nil {
		return nil, err
	}
	return sharding.NewTask(shape, dt, src, srcSpec, dst, dstSpec)
}

// parseTask builds a request's task, fault overlay included.
func parseTask(req *service.PlanRequest) (*sharding.Task, error) {
	_, topo, err := buildTopology(req)
	if err != nil {
		return nil, err
	}
	return decompose(req, topo)
}

// reference is what a served plan must carry, computed directly.
type reference struct {
	key      string
	units    int
	senders  []int
	order    []int
	makespan float64
	numOps   int
	// cold is, for a fault overlay, the plan the server fills when the
	// healthy twin is no longer cached: its LRU evicts a twin that no
	// request looked up for 4096 fills, which under churn happens about
	// once a run, and the server then plans the overlay cold.
	cold *reference
}

// replan plans a request directly, without the server: a fault-free
// boundary with NewPlanContext, a churn overlay the way the server fills
// it — its healthy twin planned cold, then WarmReplanContext from that
// incumbent — with the overlay's cold plan as the alternative. Plans are
// simulated trace-free, as the server's cache does.
func replan(req *service.PlanRequest) (reference, error) {
	opts, err := service.NormalizedOptions(req.Options)
	if err != nil {
		return reference{}, err
	}
	base, topo, err := buildTopology(req)
	if err != nil {
		return reference{}, err
	}
	task, err := decompose(req, topo)
	if err != nil {
		return reference{}, err
	}
	ctx := context.Background()
	cold, err := resharding.NewPlanContext(ctx, task, opts)
	if err != nil {
		return reference{}, err
	}
	if req.Faults == nil {
		return newReference(task, opts, cold, nil)
	}
	twin, err := decompose(req, base)
	if err != nil {
		return reference{}, err
	}
	incumbent, err := resharding.NewPlanContext(ctx, twin, opts)
	if err != nil {
		return reference{}, err
	}
	plan, sim, _, err := resharding.WarmReplanContext(ctx, task, opts, twin, incumbent)
	if err != nil {
		return reference{}, err
	}
	ref, err := newReference(task, opts, plan, sim)
	if err != nil {
		return ref, err
	}
	alt, err := newReference(task, opts, cold, nil)
	ref.cold = &alt
	return ref, err
}

// newReference records a plan and its simulation, simulating it when sim
// is nil.
func newReference(task *sharding.Task, opts resharding.Options, plan *resharding.Plan, sim *resharding.SimResult) (reference, error) {
	if sim == nil {
		var err error
		if sim, err = plan.SimulateNoTrace(); err != nil {
			return reference{}, err
		}
	}
	ref := reference{
		key:      resharding.CacheKey(task, opts),
		units:    len(task.Units),
		senders:  make([]int, len(task.Units)),
		order:    plan.Order,
		makespan: sim.Makespan,
		numOps:   sim.NumOps,
	}
	for i := range ref.senders {
		ref.senders[i] = plan.SenderOf[i]
	}
	return ref, nil
}

// decodeResponse decodes a /v2/plan body in either wire format.
func decodeResponse(body []byte, binary bool) (*service.PlanResponse, error) {
	if binary {
		return service.DecodePlanFrame(body)
	}
	var resp service.PlanResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// check compares a served plan with its reference: the key, the senders,
// the launch order and the simulated makespan must all match exactly,
// those of the warm replan or, for an overlay, of its cold plan.
func (ref *reference) check(resp *service.PlanResponse) error {
	err := ref.match(resp)
	if err != nil && ref.cold != nil && ref.cold.match(resp) == nil {
		return nil
	}
	return err
}

func (ref *reference) match(resp *service.PlanResponse) error {
	switch {
	case resp.Key != ref.key:
		return fmt.Errorf("key %q, want %q", resp.Key, ref.key)
	case resp.NumUnits != ref.units:
		return fmt.Errorf("num_units %d, want %d", resp.NumUnits, ref.units)
	case !slices.Equal(resp.Senders, ref.senders):
		return fmt.Errorf("senders %v, want %v", resp.Senders, ref.senders)
	case !slices.Equal(resp.Order, ref.order):
		return fmt.Errorf("order %v, want %v", resp.Order, ref.order)
	case resp.MakespanSeconds != ref.makespan:
		return fmt.Errorf("makespan %g, want %g", resp.MakespanSeconds, ref.makespan)
	case resp.NumOps != ref.numOps:
		return fmt.Errorf("num_ops %d, want %d", resp.NumOps, ref.numOps)
	}
	return nil
}

// sameResponse reports whether two decoded responses carry the same plan;
// the coalesced flag is per request and ignored.
func sameResponse(a, b *service.PlanResponse) bool {
	x, y := *a, *b
	x.Coalesced, y.Coalesced = false, false
	return x.Strategy == y.Strategy && x.Scheduler == y.Scheduler && x.NumUnits == y.NumUnits &&
		slices.Equal(x.Senders, y.Senders) && slices.Equal(x.Order, y.Order) &&
		x.MakespanSeconds == y.MakespanSeconds && x.EffectiveGbps == y.EffectiveGbps &&
		x.NumOps == y.NumOps && x.Key == y.Key && x.Degraded == y.Degraded
}

// sampled reports whether response i of a stream is in the seeded
// verification sample: about one in every `every`.
func sampled(seed int64, stream uint64, i, every int) bool {
	return mix(uint64(seed)^mix(stream<<40|uint64(i)))%uint64(every) == 0
}
