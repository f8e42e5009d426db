package resharding

import (
	"testing"

	"alpacomm/internal/mesh"
	"alpacomm/internal/sharding"
	"alpacomm/internal/tensor"
)

// maxWarmSimulateAllocs is the allocation budget of one trace-free
// simulation on a warm builder: the returned SimResult. Arenas, Eq. 3
// windows, chain scratch, NIC views and op labels are all reused.
const maxWarmSimulateAllocs = 1

// TestSimulateNoTraceWarmBuilderAllocs pins the allocation-free broadcast
// builder: once a builder has simulated a plan, simulating it again
// trace-free (SimulateNoTrace's path, on a held builder instead of the
// pool) allocates only the result — on the single-NIC p3 preset, on
// 8-NIC DGX-A100 hosts (every unit split into per-NIC chains) and on the
// mixed fabric.
func TestSimulateNoTraceWarmBuilderAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, tc := range []struct {
		name string
		topo mesh.Topology
	}{
		{mesh.TopologyP3, mesh.AWSP3Cluster(4)},
		{mesh.TopologyDGXA100, mesh.DGXA100Cluster(2)},
		{mesh.TopologyMixed, mesh.MixedP3DGXCluster(2, 2, 1)},
	} {
		task := builderTask(t, tc.topo, 0, 8)
		plan, err := NewPlan(task, Options{Strategy: Broadcast, Scheduler: SchedEnsemble, Seed: 1, DFSNodes: DefaultAutotuneDFSNodes})
		if err != nil {
			t.Fatal(err)
		}
		want, err := plan.SimulateNoTrace()
		if err != nil {
			t.Fatal(err)
		}
		b := NewPlanBuilder()
		if _, err := plan.simulateWith(b, false); err != nil {
			t.Fatal(err)
		}
		var got *SimResult
		allocs := testing.AllocsPerRun(20, func() {
			got, err = plan.simulateWith(b, false)
		})
		if err != nil {
			t.Fatal(err)
		}
		if got.Makespan != want.Makespan || got.NumOps != want.NumOps {
			t.Fatalf("%s: warm builder makespan/ops %v/%d, pooled %v/%d", tc.name, got.Makespan, got.NumOps, want.Makespan, want.NumOps)
		}
		if allocs > maxWarmSimulateAllocs {
			t.Errorf("%s: %v allocs per warm SimulateNoTrace (%d units, %d ops), want <= %d",
				tc.name, allocs, len(task.Units), got.NumOps, maxWarmSimulateAllocs)
		}
	}
}

// TestSimulateBroadcastReusedBuilderAcrossPlans alternates plans of
// different unit counts and strategies through one builder and compares
// each full trace with a fresh builder's: completion-op windows, NIC views
// and chain scratch left by an earlier plan must never leak into a later
// plan's ops or Eq. 3 dependencies. (Windows aliased within one plan would
// corrupt the fresh builder's trace just the same; the golden fixtures
// catch that.)
func TestSimulateBroadcastReusedBuilderAcrossPlans(t *testing.T) {
	topo := mesh.DGXA100Cluster(2)
	var plans []*Plan
	for _, spec := range []struct{ src, dst string }{{"RS01R", "S01RR"}, {"S0RR", "RS1R"}, {"S01RR", "RRR"}} {
		src, err := topo.Slice([]int{2, 4}, 0)
		if err != nil {
			t.Fatal(err)
		}
		dst, err := topo.Slice([]int{2, 4}, 8)
		if err != nil {
			t.Fatal(err)
		}
		task, err := sharding.NewTask(tensor.MustShape(64, 64, 8), tensor.Float32,
			src, sharding.MustParse(spec.src), dst, sharding.MustParse(spec.dst))
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []Strategy{Broadcast, SendRecv} {
			p, err := NewPlan(task, Options{Strategy: s, Scheduler: SchedEnsemble, Seed: 2, DFSNodes: 2000, Chunks: 3})
			if err != nil {
				t.Fatal(err)
			}
			plans = append(plans, p)
		}
	}
	b := NewPlanBuilder()
	for round := 0; round < 2; round++ {
		for _, p := range plans {
			want, err := p.SimulateWith(NewPlanBuilder())
			if err != nil {
				t.Fatal(err)
			}
			got, err := p.SimulateWith(b)
			if err != nil {
				t.Fatal(err)
			}
			assertSameSim(t, p.String(), got, want)
		}
	}
}
