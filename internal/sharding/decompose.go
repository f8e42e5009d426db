package sharding

import (
	"fmt"
	"sort"

	"alpacomm/internal/mesh"
	"alpacomm/internal/tensor"
)

// UnitTask is one unit communication task of a cross-mesh resharding
// (§2.2): a unique data slice that must travel from the source mesh (where
// Senders hold replicas) to every device in Receivers on the destination
// mesh.
type UnitTask struct {
	// Index is the task's position in the decomposition, used as a stable
	// identifier by the scheduler.
	Index int
	// Slice is the region of the global tensor this task moves.
	Slice tensor.Region
	// Senders are the physical devices on the source mesh holding a
	// replica of Slice (the paper's N_i). Sorted ascending.
	Senders []int
	// Receivers are the physical devices on the destination mesh that need
	// Slice (the paper's M_i). Sorted ascending.
	Receivers []int
}

// Bytes returns the size of the task's slice in bytes.
func (u UnitTask) Bytes(dt tensor.DType) int64 {
	return u.Slice.NumElements() * dt.Size()
}

// Task is a full cross-mesh resharding task: send tensor Global, sharded as
// SrcSpec on SrcMesh, to DstMesh where it must be laid out as DstSpec.
type Task struct {
	Global tensor.Shape
	DType  tensor.DType
	Src    *Placement
	Dst    *Placement
	Units  []UnitTask
}

// NewTask validates the resharding endpoints and decomposes the task into
// unit communication tasks with the Appendix B.2 cutpoint algorithm:
//
//  1. per tensor dimension, merge the shard cut points of the sender and
//     receiver placements;
//  2. the cross product of the resulting interval lists tiles the tensor
//     into slices;
//  3. each slice becomes a unit task whose senders are all source devices
//     holding it and whose receivers are all destination devices needing it.
func NewTask(global tensor.Shape, dt tensor.DType, srcMesh *mesh.Mesh, srcSpec Spec, dstMesh *mesh.Mesh, dstSpec Spec) (*Task, error) {
	if !mesh.Disjoint(srcMesh, dstMesh) {
		return nil, fmt.Errorf("sharding: cross-mesh resharding requires disjoint meshes")
	}
	src, err := NewPlacement(srcMesh, srcSpec, global)
	if err != nil {
		return nil, fmt.Errorf("sharding: source placement: %v", err)
	}
	dst, err := NewPlacement(dstMesh, dstSpec, global)
	if err != nil {
		return nil, fmt.Errorf("sharding: destination placement: %v", err)
	}
	t := &Task{Global: global.Clone(), DType: dt, Src: src, Dst: dst}
	t.Units = decompose(src, dst)
	return t, nil
}

// decompose implements Appendix B.2 over two placements.
func decompose(src, dst *Placement) []UnitTask {
	rank := src.Global.Rank()
	dims := make([][]tensor.Interval, rank)
	for i := 0; i < rank; i++ {
		cuts := tensor.MergeCuts(src.Cuts(i), dst.Cuts(i))
		dims[i] = tensor.IntervalsFromCuts(cuts)
	}
	slices := tensor.CrossProduct(dims)
	units := make([]UnitTask, 0, len(slices))
	for _, s := range slices {
		senders := src.HoldersOf(s)
		receivers := dst.HoldersOf(s)
		sort.Ints(senders)
		sort.Ints(receivers)
		units = append(units, UnitTask{
			Index:     len(units),
			Slice:     s,
			Senders:   senders,
			Receivers: receivers,
		})
	}
	return units
}

// OnTopology rebuilds the task with both meshes bound to a different
// topology: same logical shapes, same physical device indices, the same
// decomposition re-derived. The target must use the same device indexing
// as the meshes' current topology — the intended use is rebinding a task
// to a fault overlay (mesh.Faulted) of its own topology, or back to the
// overlay's base, without reconstructing the boundary by hand.
func (t *Task) OnTopology(topo mesh.Topology) (*Task, error) {
	src, err := mesh.NewMesh(topo, t.Src.Mesh.Shape, t.Src.Mesh.Devices)
	if err != nil {
		return nil, fmt.Errorf("sharding: rebind source mesh: %v", err)
	}
	dst, err := mesh.NewMesh(topo, t.Dst.Mesh.Shape, t.Dst.Mesh.Devices)
	if err != nil {
		return nil, fmt.Errorf("sharding: rebind destination mesh: %v", err)
	}
	return NewTask(t.Global, t.DType, src, t.Src.Spec, dst, t.Dst.Spec)
}

// TotalBytes returns the lower bound on cross-mesh traffic: the full tensor
// size (§2.2 — "the size of messages transferred between two meshes is
// lower bound by the size of D").
func (t *Task) TotalBytes() int64 {
	return t.Global.NumElements() * t.DType.Size()
}

// SenderHosts returns the candidate sender hosts of a unit task (the
// paper's n_i: scheduling happens at host granularity, §3.2).
func (t *Task) SenderHosts(u UnitTask) []int {
	return appendHosts(nil, t.Src.Mesh.Topo, u.Senders)
}

// ReceiverHosts returns the receiver hosts of a unit task (m_i).
func (t *Task) ReceiverHosts(u UnitTask) []int {
	return t.AppendReceiverHosts(nil, u)
}

// AppendReceiverHosts appends the receiver hosts of a unit task to dst and
// returns the extended slice: ReceiverHosts into a reusable buffer.
func (t *Task) AppendReceiverHosts(dst []int, u UnitTask) []int {
	return appendHosts(dst, t.Dst.Mesh.Topo, u.Receivers)
}

// appendHosts appends the distinct hosts of devices to dst. Devices are
// sorted and hosts own contiguous ascending device runs, so the host
// sequence is non-decreasing: deduplicating consecutive values yields the
// sorted distinct host list without a set.
func appendHosts(dst []int, c mesh.Topology, devices []int) []int {
	start := len(dst)
	for _, d := range devices {
		h := c.HostOf(d)
		if len(dst) == start || dst[len(dst)-1] != h {
			dst = append(dst, h)
		}
	}
	return dst
}

func (t *Task) String() string {
	return fmt.Sprintf("reshard %v %s: %s on %v -> %s on %v (%d unit tasks)",
		t.Global, t.DType, t.Src.Spec, t.Src.Mesh.Devices, t.Dst.Spec, t.Dst.Mesh.Devices, len(t.Units))
}
