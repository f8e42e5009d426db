package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"

	"alpacomm/internal/service"
)

// Workload names accepted by -workload.
const (
	wlHot   = "hot"
	wlCold  = "cold"
	wlChurn = "churn"
)

// Request streams. Every phase draws its requests from its own stream, so
// set-up, the closed-loop phase, the open-loop phase and the traced
// replay never share a cold boundary or a churn overlay, and each stream
// is a pure function of (seed, stream, index).
const (
	streamSetup uint64 = iota
	streamClosed
	streamOpen
	streamTrace
)

// template is one family of stage boundaries: a topology preset with a
// pair of disjoint meshes on different hosts and a pair of sharding specs
// over a rank-2 tensor. Shapes, dtypes and option seeds vary within it.
type template struct {
	topo     service.TopologyRef
	src, dst service.Endpoint
}

// templates spans the three presets: the paper's p3 testbed, DGX-A100
// nodes and the mixed p3/DGX fabric. Each decomposes into 8 to 32 unit
// tasks, so a cold fill costs a few hundred microseconds of DFS and
// simulation rather than being dominated by one pathological search.
var templates = []template{
	tmpl("p3", 2, "2x2@0", "S01R", "2x2@4", "RS01"),
	tmpl("p3", 2, "1x4@0", "S0S1", "2x2@4", "S1S0"),
	tmpl("p3", 2, "2x2@0", "RS01", "2x2@4", "S0S1"),
	tmpl("p3", 4, "2x4@0", "S1R", "2x4@8", "RS01"),
	tmpl("p3", 4, "2x4@0", "S01R", "2x4@8", "S0R"),
	tmpl("dgx-a100", 2, "2x4@0", "RS01", "2x4@8", "S0S1"),
	tmpl("dgx-a100", 2, "2x4@0", "S01R", "2x4@8", "S0R"),
	tmpl("dgx-a100", 2, "2x2@0", "S01R", "2x2@8", "RS01"),
	tmpl("mixed", 3, "2x2@0", "S1R", "2x4@4", "RS01"),
	tmpl("mixed", 3, "2x4@4", "RS01", "2x4@12", "S0S1"),
	tmpl("mixed", 3, "1x4@0", "S01R", "2x4@12", "RS01"),
	tmpl("mixed", 3, "2x4@4", "S01R", "2x4@12", "S0R"),
}

func tmpl(topo string, hosts int, srcMesh, srcSpec, dstMesh, dstSpec string) template {
	return template{
		topo: service.TopologyRef{Name: topo, Hosts: hosts},
		src:  service.Endpoint{Mesh: srcMesh, Spec: srcSpec},
		dst:  service.Endpoint{Mesh: dstMesh, Spec: dstSpec},
	}
}

// hotPerTemplate is the number of hot boundaries drawn per template; the
// hot working set is len(templates)*hotPerTemplate distinct cache keys,
// far below the server's 4096-entry plan cache and parse memo.
const hotPerTemplate = 32

// coldWarmSet is the number of cold boundaries planned in set-up: cold
// has no working set, so set-up warms the process with a few fills.
const coldWarmSet = 64

// tensorSpec is a global shape with its dtype.
type tensorSpec struct {
	shape []int
	dtype string
}

// shapes are the tensors a boundary draws from. Their byte sizes span 8x,
// so the geometric-mean makespan of a seeded request set is a steady
// figure of plan quality rather than a draw of sizes.
var shapes = func() (out []tensorSpec) {
	for _, a := range []int{1024, 1536, 2048} {
		for _, b := range []int{1024, 1536, 2048} {
			for _, dt := range []string{"fp16", "fp32"} {
				out = append(out, tensorSpec{[]int{a, b}, dt})
			}
		}
	}
	return out
}()

// Request is one generated /v2/plan call.
type Request struct {
	// Plan is the wire request; Body is its exact JSON encoding.
	Plan service.PlanRequest
	Body []byte
	// Binary negotiates the binary response frame.
	Binary bool
	// Boundary indexes the hot set (hot and churn), -1 for cold.
	Boundary int
	// Fault is "link" or "host" for a churn overlay, "" otherwise.
	Fault string
}

// Workload generates the seeded request sequences of one workload.
type Workload struct {
	Name string
	Seed int64
	// Hot is the hot working set (hot and churn); nil for cold.
	Hot []service.PlanRequest
	// hotBodies caches the encoded hot requests; hotHosts holds each hot
	// boundary's source and destination hosts, for drawing overlays.
	hotBodies [][]byte
	hotHosts  [][2][]int
	// coldBase offsets cold option seeds so every cold boundary of a run
	// has its own cache key.
	coldBase int64
}

// NewWorkload builds the named workload for a seed. The hot set is drawn
// template by template and deduplicated on the server's own canonical
// cache key, so it holds exactly len(templates)*hotPerTemplate distinct
// plans.
func NewWorkload(name string, seed int64) (*Workload, error) {
	w := &Workload{Name: name, Seed: seed}
	switch name {
	case wlHot, wlChurn:
		hot, err := hotSet(seed)
		if err != nil {
			return nil, err
		}
		w.Hot = hot
		w.hotBodies = make([][]byte, len(hot))
		w.hotHosts = make([][2][]int, len(hot))
		for i := range hot {
			w.hotBodies[i] = mustJSON(&hot[i])
			src, dst, err := boundaryHosts(&hot[i])
			if err != nil {
				return nil, err
			}
			w.hotHosts[i] = [2][]int{src, dst}
		}
	case wlCold:
		r := rng(seed, 0x636f6c64, 0)
		w.coldBase = 1 + int64(r.Uint64()>>24)
	default:
		return nil, fmt.Errorf("unknown workload %q (want hot, cold or churn)", name)
	}
	return w, nil
}

// hotSet draws the hot boundaries for a seed.
func hotSet(seed int64) ([]service.PlanRequest, error) {
	parser := service.New(service.Config{})
	seen := map[string]bool{}
	out := make([]service.PlanRequest, 0, len(templates)*hotPerTemplate)
	r := rng(seed, 0x686f74, 0)
	for _, t := range templates {
		// Each template cycles through every shape from a seeded offset,
		// so every seed's hot set has the same mix of tensor sizes.
		off := r.IntN(len(shapes))
		for n := 0; n < hotPerTemplate; {
			req := boundary(t, (off+n)%len(shapes), 1+int64(r.IntN(1<<30)))
			_, _, key, err := parser.ParsePlanRequest(context.Background(), &req)
			if err != nil {
				return nil, fmt.Errorf("hot boundary %s: %v", mustJSON(&req), err)
			}
			if seen[key] {
				continue
			}
			seen[key] = true
			out = append(out, req)
			n++
		}
	}
	return out, nil
}

// boundary is one fault-free boundary of a template.
func boundary(t template, shape int, optSeed int64) service.PlanRequest {
	return service.PlanRequest{
		Topology: t.topo,
		Shape:    shapes[shape].shape,
		DType:    shapes[shape].dtype,
		Src:      t.src,
		Dst:      t.dst,
		Options:  service.PlanOptions{Seed: optSeed},
	}
}

// WarmSet returns the requests planned during set-up: the hot set for hot
// and churn (for churn these are the healthy twins every overlay warm
// starts from), a few set-up-stream boundaries for cold.
func (w *Workload) WarmSet() []Request {
	if w.Name == wlCold {
		out := make([]Request, coldWarmSet)
		for i := range out {
			out[i] = w.At(streamSetup, i)
		}
		return out
	}
	out := make([]Request, len(w.Hot))
	for i := range w.Hot {
		out[i] = Request{Plan: w.Hot[i], Body: w.hotBodies[i], Boundary: i}
	}
	return out
}

// At returns request i of a stream. It is a pure function of (seed,
// stream, i): two Workloads built with one seed return byte-identical
// requests.
func (w *Workload) At(stream uint64, i int) Request {
	r := rng(w.Seed, stream, uint64(i))
	switch w.Name {
	case wlHot:
		b := r.IntN(len(w.Hot))
		return Request{Plan: w.Hot[b], Body: w.hotBodies[b], Binary: r.IntN(2) == 1, Boundary: b}
	case wlCold:
		// Templates take turns and option seeds are unique per (stream,
		// index): no cold boundary repeats within a run, so every request
		// misses the plan cache.
		t := templates[i%len(templates)]
		req := boundary(t, r.IntN(len(shapes)), w.coldBase+int64(stream)<<32+int64(i))
		return Request{Plan: req, Body: mustJSON(&req), Boundary: -1}
	default: // churn
		b := r.IntN(len(w.Hot))
		req := w.Hot[b]
		kind, faults := drawOverlay(r, w.hotHosts[b][0], w.hotHosts[b][1])
		req.Faults = faults
		return Request{Plan: req, Body: mustJSON(&req), Boundary: b, Fault: kind}
	}
}

// drawOverlay draws a churn overlay for a boundary: half link-only
// brownouts between a source and a destination host (the host-level
// instance is unchanged, so the server replans in warm identity mode),
// half NIC stragglers on a host the boundary uses (task durations change,
// so it replans in warm search mode). Scales are drawn to 1e-6, so an
// overlay practically never repeats and every churn request is a fill.
func drawOverlay(r *rand.Rand, srcHosts, dstHosts []int) (string, *service.FaultsRef) {
	scale := func(lo, hi float64) float64 {
		return lo + float64(r.IntN(int((hi-lo)*1e6)))/1e6
	}
	if r.IntN(2) == 0 {
		a := srcHosts[r.IntN(len(srcHosts))]
		b := dstHosts[r.IntN(len(dstHosts))]
		return "link", &service.FaultsRef{Links: []service.LinkFaultRef{{A: a, B: b, BandwidthScale: scale(0.3, 0.95)}}}
	}
	hosts := append(append([]int(nil), srcHosts...), dstHosts...)
	h := hosts[r.IntN(len(hosts))]
	return "host", &service.FaultsRef{Hosts: []service.HostFaultRef{{Host: h, NICScale: scale(0.25, 0.9)}}}
}

// boundaryHosts returns the hosts of a boundary's source and destination
// meshes.
func boundaryHosts(req *service.PlanRequest) (src, dst []int, err error) {
	task, err := parseTask(req)
	if err != nil {
		return nil, nil, err
	}
	topo := task.Src.Mesh.Topo
	hostsOf := func(devs []int) []int {
		var hs []int
		for _, d := range devs {
			h := topo.HostOf(d)
			if len(hs) == 0 || hs[len(hs)-1] != h {
				hs = append(hs, h)
			}
		}
		return hs
	}
	return hostsOf(task.Src.Mesh.Devices), hostsOf(task.Dst.Mesh.Devices), nil
}

// rng returns the deterministic generator of one (seed, stream, index).
func rng(seed int64, stream, i uint64) *rand.Rand {
	return rand.New(rand.NewPCG(mix(uint64(seed)^0x9e3779b97f4a7c15*stream), mix(i+0x632be59bd9b4e019*(stream+1))))
}

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func mustJSON(v interface{}) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}
