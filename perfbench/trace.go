package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"alpacomm/internal/mesh"
	"alpacomm/internal/resharding"
	"alpacomm/internal/schedule"
	"alpacomm/internal/service"
	"alpacomm/internal/sharding"
)

// Span is one timed step of a replayed request. Layer spans are the steps
// the request's handling is made of, in order, and they add up to the
// replayed request. A probe span re-runs a step nested inside its parent
// layer on the same inputs (the program itself records no timings); it
// runs after the request span has ended and is reported on its own,
// never summed.
type Span struct {
	Request int    `json:"request"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Probe   bool   `json:"probe,omitempty"`
}

// tracer records spans in memory against one epoch; nil records nothing.
type tracer struct {
	epoch time.Time
	spans []Span
}

func (t *tracer) begin(req, parent int, name string) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, Span{Request: req, ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: int64(time.Since(t.epoch))})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id-1].End = int64(time.Since(t.epoch))
}

// probe times f as a probe span under parent.
func (t *tracer) probe(req, parent int, name string, f func()) {
	id := t.begin(req, parent, name)
	f()
	t.end(id)
	t.spans[id-1].Probe = true
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// requestTimes returns each replayed request's span duration in seconds.
func requestTimes(spans []Span, n int) []float64 {
	out := make([]float64, n)
	for _, s := range spans {
		if s.Parent == 0 && s.Request >= 0 && s.Request < n {
			out[s.Request] = float64(s.End-s.Start) / 1e9
		}
	}
	return out
}

// undisturbed marks the requests whose time on every path stays within
// 20 times that path's median. On a shared machine a request whose CPU
// went to another guest for milliseconds would otherwise dominate the
// means of microsecond layers; a request is kept or dropped on all paths
// together, so the kept means still add up.
func undisturbed(paths ...[]float64) []bool {
	keep := make([]bool, len(paths[0]))
	for i := range keep {
		keep[i] = true
	}
	for _, p := range paths {
		limit := 20 * median(p)
		for i, x := range p {
			if x > limit {
				keep[i] = false
			}
		}
	}
	return keep
}

// keptMean is the mean of xs over the kept indices.
func keptMean(xs []float64, keep []bool) float64 {
	var s float64
	n := 0
	for i, x := range xs {
		if keep[i] {
			s += x
			n++
		}
	}
	return s / float64(max(1, n))
}

// replayed is what replaying one request produced, for cross-checking
// against the in-process handler's response.
type replayed struct {
	plan     *resharding.Plan
	sim      *resharding.SimResult
	task     *sharding.Task
	opts     resharding.Options
	key      string
	warm     *resharding.WarmInfo
	numOps   int
	simulate bool
}

// replayer re-executes the serve path of /v2/plan by calling each layer's
// public function in the order the handler does: body decode, the
// server's own bounded parse (with its parse memo), the plan-cache lookup,
// then on a miss the cold plan or the warm replan from the cached healthy
// twin, the trace-free simulation, response encoding and cache install,
// and finally the response write.
type replayer struct {
	parser *service.Server
	cache  *resharding.PlanCache
	tr     *tracer
	// lastTask remembers the task each fault-free body last parsed to: the
	// parse memo hands back the same task, which is how a replay tells a
	// memo hit (no decompose, no key render) from a full parse.
	lastTask map[string]*sharding.Task
	out      bytes.Buffer
	probes   []probe
}

func newReplayer(tr *tracer) *replayer {
	cache := resharding.NewLRUPlanCache(service.DefaultCacheCapacity)
	cache.SetSimulateNoTrace(true)
	return &replayer{parser: service.New(service.Config{}), cache: cache, tr: tr, lastTask: map[string]*sharding.Task{}}
}

// warm replays the workload's warm set untraced.
func (r *replayer) warm(w *Workload) error {
	tr := r.tr
	r.tr = nil
	defer func() { r.tr = tr }()
	for i, req := range w.WarmSet() {
		if _, err := r.serve(-1-i, &req); err != nil {
			return fmt.Errorf("replaying the warm set: %v", err)
		}
	}
	return nil
}

// serve replays one request; id is its request ID in the span file.
func (r *replayer) serve(id int, req *Request) (*replayed, error) {
	ctx := context.Background()
	tr := r.tr
	root := tr.begin(id, 0, "request")
	defer r.runProbes()
	defer tr.end(root)

	s := tr.begin(id, root, "service.decode")
	var pr service.PlanRequest
	dec := json.NewDecoder(bytes.NewReader(req.Body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&pr)
	tr.end(s)
	if err != nil {
		return nil, err
	}

	parse := tr.begin(id, root, "service.parse")
	task, opts, key, err := r.parser.ParsePlanRequest(ctx, &pr)
	tr.end(parse)
	if err != nil {
		return nil, err
	}
	memoHit := false
	if pr.Faults == nil {
		if memoHit = r.lastTask[string(req.Body)] == task; !memoHit {
			r.lastTask[string(req.Body)] = task
		}
	}
	if tr != nil && !memoHit {
		topo := task.Src.Mesh.Topo
		r.later(id, parse, "mesh.topology", func() {
			_, _ = registry.Build(pr.Topology.Name, mesh.TopologyParams{Hosts: pr.Topology.Hosts, Oversubscription: pr.Topology.Oversubscription})
		})
		if pr.Faults != nil {
			if base, ok := topo.(*mesh.Faulted); ok {
				r.later(id, parse, "mesh.faulted", func() { _, _ = mesh.NewFaulted(base.Base(), faultSet(pr.Faults)) })
			}
		}
		r.later(id, parse, "sharding.decompose", func() { _, _ = decompose(&pr, topo) })
		r.later(id, parse, "resharding.cache_key", func() { _ = resharding.CacheKey(task, opts) })
	}

	var fromKey string
	var fromTask *sharding.Task
	if pr.Faults != nil {
		twin := pr
		twin.Faults = nil
		s = tr.begin(id, root, "service.twin_parse")
		t0, _, k0, err := r.parser.ParsePlanRequest(ctx, &twin)
		tr.end(s)
		if err == nil && k0 != key {
			fromKey, fromTask = k0, t0
		}
	}

	out := &replayed{task: task, opts: opts, key: key}
	s = tr.begin(id, root, "resharding.cache_lookup")
	plan, sim, att, ok := r.cache.LookupKeyedAttachment(key)
	tr.end(s)
	body, _ := att.([]byte)
	if !ok {
		var incumbent *resharding.Plan
		if fromTask != nil {
			s = tr.begin(id, root, "resharding.cache_lookup")
			incumbent, _, _ = r.cache.LookupKeyed(fromKey)
			tr.end(s)
		}
		if incumbent != nil {
			s = tr.begin(id, root, "resharding.warm")
			var info resharding.WarmInfo
			plan, sim, info, err = resharding.WarmReplanContext(ctx, task, opts, fromTask, incumbent)
			tr.end(s)
			out.warm = &info
		} else {
			p := tr.begin(id, root, "resharding.plan")
			plan, err = resharding.NewPlanContext(ctx, task, opts)
			tr.end(p)
			if err == nil && tr != nil {
				hostTasks := plan.HostTasks
				r.later(id, p, "schedule.ensemble", func() {
					schedule.EnsembleNodesStop(hostTasks, opts.DFSNodes, opts.Trials, rand.New(rand.NewSource(opts.Seed)), nil)
				})
				r.later(id, p, "schedule.greedy", func() { schedule.GreedyEnsemble(hostTasks) })
			}
		}
		if err != nil {
			return nil, err
		}
		if sim == nil {
			s = tr.begin(id, root, "resharding.simulate")
			sim, err = plan.SimulateNoTrace()
			tr.end(s)
			if err != nil {
				return nil, err
			}
			out.simulate = true
		}
		out.numOps = sim.NumOps
		s = tr.begin(id, root, "service.encode")
		resp := response(plan, sim, task, opts, key)
		body, err = json.Marshal(&resp)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		s = tr.begin(id, root, "resharding.cache_install")
		r.cache.Install(key, plan, sim)
		r.cache.Attach(key, body)
		tr.end(s)
	}
	out.plan, out.sim = plan, sim

	s = tr.begin(id, root, "service.write")
	r.out.Reset()
	r.out.Write(body)
	tr.end(s)
	return out, nil
}

// later queues a probe to run once the request span has ended, so the
// probe's work never sits between two layer spans of the request.
func (r *replayer) later(req, parent int, name string, f func()) {
	r.probes = append(r.probes, probe{req, parent, name, f})
}

func (r *replayer) runProbes() {
	for _, p := range r.probes {
		r.tr.probe(p.req, p.parent, p.name, p.f)
	}
	r.probes = r.probes[:0]
}

type probe struct {
	req, parent int
	name        string
	f           func()
}

// response is the wire response the replayed request should have got.
func (o *replayed) response() service.PlanResponse {
	return response(o.plan, o.sim, o.task, o.opts, o.key)
}

// response renders a plan the way the server's fill does, for a plan
// computed for this very task (no sender remapping).
func response(plan *resharding.Plan, sim *resharding.SimResult, task *sharding.Task, opts resharding.Options, key string) service.PlanResponse {
	senders := make([]int, len(task.Units))
	for i := range senders {
		senders[i] = plan.SenderOf[i]
	}
	return service.PlanResponse{
		Strategy:        opts.Strategy.String(),
		Scheduler:       opts.Scheduler.String(),
		NumUnits:        len(task.Units),
		Senders:         senders,
		Order:           plan.Order,
		MakespanSeconds: sim.Makespan,
		EffectiveGbps:   sim.EffectiveGbps,
		NumOps:          sim.NumOps,
		Key:             key,
	}
}

// layerTotals sums each span name's time over the kept replayed
// requests, split into layers (summed into the request) and probes.
type layerTotals struct {
	layer, probe map[string]float64 // seconds
	probeCalls   map[string]int
	// requests is the replayed requests' total time.
	requests float64
}

func totals(spans []Span, keep []bool) layerTotals {
	lt := layerTotals{layer: map[string]float64{}, probe: map[string]float64{}, probeCalls: map[string]int{}}
	for _, s := range spans {
		if !keep[s.Request] {
			continue
		}
		d := float64(s.End-s.Start) / 1e9
		switch {
		case s.Parent == 0:
			lt.requests += d
		case s.Probe:
			lt.probe[s.Name] += d
			lt.probeCalls[s.Name]++
		default:
			lt.layer[s.Name] += d
		}
	}
	return lt
}
