package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"time"

	"alpacomm/internal/resharding"
	"alpacomm/internal/service"
)

// setup is one timed server set-up and the machine's steal share during
// it.
type setup struct{ seconds, steal float64 }

// setUp starts the server and plans the workload's warm set, cfg.setups
// times over; every set-up but the last is stopped again. It returns the
// live server, its client and the set-ups.
func setUp(cfg *config, w *Workload, res *result, refs *hotRefs) (*serverProc, *client, []setup, error) {
	var setups []setup
	for {
		steal0, total0 := cpuStat()
		t0 := time.Now()
		p, err := startServer(cfg.server)
		if err != nil {
			return nil, nil, nil, err
		}
		c := newClient(p.addr, cfg.conns)
		ph := warm(c, w.WarmSet(), cfg.conns, newChecker(w, streamSetup, 1<<30, false, refs))
		elapsed := time.Since(t0).Seconds()
		steal1, total1 := cpuStat()
		setups = append(setups, setup{elapsed, stealShare(steal1-steal0, total1-total0)})
		res.absorb(ph)
		if len(setups) >= cfg.setups {
			return p, c, setups, nil
		}
		c.close()
		p.stop()
	}
}

// runEndToEnd measures the workload as a user sees it: set-up, then a
// closed-loop capacity phase and a fixed-rate open-loop phase, each half
// of the measured seconds, against the live server. The phases take turns
// in segments (see segment).
func runEndToEnd(cfg *config, w *Workload) (*result, error) {
	res := &result{}
	refs := &hotRefs{m: map[[2]int][]byte{}}
	p, c, setups, err := setUp(cfg, w, res, refs)
	if err != nil {
		return nil, err
	}
	half := time.Duration(cfg.seconds / 2 * float64(time.Second))
	seg := segmentFor(half)
	rounds := int(half / seg)
	rate := cfg.rates[w.Name]
	due := arrivals(w.Seed, streamOpen, rate, int(rate*half.Seconds()))
	closedChk := newChecker(w, streamClosed, sampleEvery[w.Name], false, refs)
	openChk := newChecker(w, streamOpen, sampleEvery[w.Name], true, refs)
	closed, open := &phase{}, &phase{}
	var closedWin, openWin []win
	offered := 0
	var segErr error
	for k := 1; k <= rounds; k++ {
		ph, x, err := segment(p, func() *phase {
			return closedLoop(c, w, streamClosed, cfg.conns, closed.attempted, seg, closedChk)
		})
		closed.merge(ph)
		closedWin = append(closedWin, x)
		// The open segment offers the requests due in the k-th stretch of
		// seg, the last one every request left.
		first := offered
		for offered < len(due) && (due[offered] < time.Duration(k)*seg || k == rounds) {
			offered++
		}
		offsets := make([]time.Duration, offered-first)
		for j := range offsets {
			offsets[j] = due[first+j] - time.Duration(k-1)*seg
		}
		time.Sleep(settle)
		ph, x, err2 := segment(p, func() *phase {
			return openLoop(c, w, streamOpen, cfg.conns, first, offsets, openChk)
		})
		open.merge(ph)
		openWin = append(openWin, x)
		if segErr = firstErr(err, err2); segErr != nil {
			break
		}
	}
	var par *phase
	if w.Name == wlHot {
		par = parity(c, w, 24)
	}
	rss, rssErr := p.peakRSSMB()
	c.close()
	p.stop()
	if err := firstErr(segErr, rssErr); err != nil {
		return nil, fmt.Errorf("reading /proc: %v", err)
	}
	verified := verifyKept(closed) + verifyKept(open)
	res.absorb(closed, open, par)
	res.notes = append(res.notes, fmt.Sprintf("verified %d sampled responses by direct re-planning", verified))

	ms := func(q float64) func(win) float64 {
		return func(x win) float64 { return percentile(x.lat, q) * 1e3 }
	}
	// A metric is f of the calm segments pooled; its spread is that of f
	// over the calm segments one by one.
	calmMetric := func(name string, ws []win, unit string, f func(win) float64) {
		calmWs := calmWindows(ws)
		vals := make([]float64, len(calmWs))
		for i, x := range calmWs {
			vals[i] = f(x)
		}
		res.add(name, f(pool(calmWs)), unit, spread(vals))
	}
	setupTimes := make([]float64, 0, len(setups))
	for _, s := range calmSetups(setups) {
		setupTimes = append(setupTimes, s.seconds)
	}
	res.add("setup_s", median(setupTimes), "s", spread(setupTimes))
	calmMetric("capacity_rps", closedWin, "1/s", func(x win) float64 { return float64(len(x.lat)) / x.seconds })
	calmMetric("closed_p50_ms", closedWin, "ms", ms(50))
	calmMetric("closed_p99_ms", closedWin, "ms", ms(99))
	calmMetric("open_p50_ms", openWin, "ms", ms(50))
	calmMetric("cpu_us_per_op", openWin, "us", func(x win) float64 { return x.cpu / float64(max(1, len(x.lat))) * 1e6 })
	res.add("rss_peak_mb", rss, "MiB", 0)
	res.add("ok_ratio", 1-float64(res.failed)/float64(max(1, res.attempted)), "ratio", 0)
	res.add("plan_makespan_ms", geomean(open.makespans)*1e3, "ms", spread(chunked(open.makespans, 5, geomean)))
	res.notes = append(res.notes,
		fmt.Sprintf("closed loop: %d served in %.2fs over %d connections; %s", closed.served, closed.elapsed.Seconds(), cfg.conns, calmNote(closedWin)),
		fmt.Sprintf("open loop: %d served at %.0f/s offered, dispatch late p50 %.3fms p99 %.3fms, latency from send p50 %.3fms; %s",
			open.served, cfg.rates[w.Name], percentile(open.late, 50)*1e3, percentile(open.late, 99)*1e3, percentile(open.sendLat, 50)*1e3, calmNote(openWin)),
		fmt.Sprintf("set-up: %d of %d set-ups calm", len(setupTimes), len(setups)),
		fmt.Sprintf("failed_ratio %.6f (%d of %d)", float64(res.failed)/float64(max(1, res.attempted)), res.failed, res.attempted))
	return res, nil
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runTraced produces the per-layer figures. Against a live server it
// runs a closed-loop phase (for the /v2/stats counters) and an open-loop
// phase (for the generator's own lateness). A freshly started and warmed
// server then serves the trace stream sequentially on one connection:
// the round trips. The generator allocates almost nothing meanwhile, so
// its garbage collector does not compete with the server for the CPUs.
// Finally the same stream goes, one request at a time and interleaved so
// that the machine's drift touches all three alike, through the real
// handler in process, the traced layer replay and the untraced replay,
// each from fresh state warmed like the server.
func runTraced(cfg *config, w *Workload) (*result, error) {
	res := &result{}
	refs := &hotRefs{m: map[[2]int][]byte{}}
	one := *cfg
	one.setups = 1
	p, c, _, err := setUp(&one, w, res, refs)
	if err != nil {
		return nil, err
	}
	sec := func(share float64) time.Duration { return time.Duration(cfg.seconds * share * float64(time.Second)) }
	statsClient := &http.Client{Timeout: 5 * time.Second}
	st0, err0 := p.stats(statsClient)
	closed := closedLoop(c, w, streamClosed, cfg.conns, 0, sec(0.3), newChecker(w, streamClosed, sampleEvery[w.Name], false, refs))
	st1, err1 := p.stats(statsClient)
	rate := cfg.rates[w.Name]
	due := arrivals(w.Seed, streamOpen, rate, int(rate*sec(0.2).Seconds()))
	open := openLoop(c, w, streamOpen, cfg.conns, 0, due, newChecker(w, streamOpen, 1<<30, false, refs))
	c.close()
	p.stop()
	if err := firstErr(err0, err1); err != nil {
		return nil, fmt.Errorf("reading /v2/stats: %v", err)
	}
	verifyKept(closed)
	res.absorb(closed, open)

	n := cfg.traceReqs
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = w.At(streamTrace, i)
	}
	rtt, served, rt, err := roundTrips(&one, w, res, refs, reqs)
	if err != nil {
		return nil, err
	}

	hreqs := make([]*http.Request, n)
	recs := make([]*httptest.ResponseRecorder, n)
	for i := range reqs {
		hreqs[i], recs[i] = httpRequest(&reqs[i]), httptest.NewRecorder()
	}
	hs := warmHandler(w)
	tr := &tracer{epoch: time.Now(), spans: make([]Span, 0, 16*n)}
	traced, plain := newReplayer(nil), newReplayer(nil)
	if err := firstErr(traced.warm(w), plain.warm(w)); err != nil {
		return nil, err
	}
	traced.tr = tr
	handler, untraced := make([]float64, n), make([]float64, n)
	outs := make([]*replayed, n)
	paths := []func(i int){
		func(i int) {
			t0 := time.Now()
			hs.ServeHTTP(recs[i], hreqs[i])
			handler[i] = time.Since(t0).Seconds()
		},
		func(i int) {
			rt.attempted++
			var err error
			if outs[i], err = traced.serve(i, &reqs[i]); err != nil {
				rt.fail("replay request %d: %v", i, err)
			}
		},
		func(i int) {
			t0 := time.Now()
			_, _ = plain.serve(i, &reqs[i])
			untraced[i] = time.Since(t0).Seconds()
		},
	}
	for i := range reqs {
		// Rotate which path goes first: the first to touch a request pays
		// the cold caches the later two find warm.
		for k := range paths {
			paths[(i+k)%len(paths)](i)
		}
	}
	res.absorb(rt)

	// Every replayed plan must equal what the live server and the
	// in-process handler served for the same request.
	checked := &phase{}
	for i := range reqs {
		if outs[i] == nil || served[i] == nil {
			continue
		}
		want := outs[i].response()
		for _, src := range []struct {
			name string
			body []byte
		}{{"live server", served[i]}, {"in-process handler", recs[i].Body.Bytes()}} {
			checked.attempted++
			got, err := decodeResponse(src.body, reqs[i].Binary)
			if err != nil || !sameResponse(got, &want) {
				checked.fail("trace request %d: %s plan differs from the layer replay (%v)", i, src.name, err)
			}
		}
	}
	res.absorb(checked)
	if err := tr.write(filepath.Join(cfg.out, "spans", fmt.Sprintf("%s-seed%d.jsonl", w.Name, w.Seed))); err != nil {
		return nil, fmt.Errorf("writing spans: %v", err)
	}

	layerMetrics(res, tr, outs, handler, untraced, rtt, handlerAllocs(w, hreqsFor(reqs[:min(n, 200)])))
	statsMetrics(res, st0, st1)
	res.add("loadgen.late_p99_ms", percentile(open.late, 99)*1e3, "ms", 0)
	return res, nil
}

// roundTrips starts a fresh server, plans the warm set and sends reqs one
// at a time on one connection, returning each round trip in seconds and
// each response body.
func roundTrips(cfg *config, w *Workload, res *result, refs *hotRefs, reqs []Request) ([]float64, [][]byte, *phase, error) {
	p, c, _, err := setUp(cfg, w, res, refs)
	if err != nil {
		return nil, nil, nil, err
	}
	defer p.stop()
	c.close()
	seq := newClient(p.addr, 1)
	defer seq.close()
	rtt := make([]float64, len(reqs))
	served := make([][]byte, len(reqs))
	ph := &phase{}
	var buf bytes.Buffer
	runtime.GC()
	for i := range reqs {
		t0 := time.Now()
		status, err := seq.do(&reqs[i], &buf)
		rtt[i] = time.Since(t0).Seconds()
		ph.attempted++
		if err != nil || status != http.StatusOK {
			ph.fail("trace request %d: status %d, %v", i, status, err)
			continue
		}
		served[i] = bytes.Clone(buf.Bytes())
	}
	return rtt, served, ph, nil
}

// warmHandler is an in-process server configured as planserver's
// defaults, with the workload's warm set served.
func warmHandler(w *Workload) *service.Server {
	hs := service.New(service.Config{})
	for _, r := range w.WarmSet() {
		hs.ServeHTTP(httptest.NewRecorder(), httpRequest(&r))
	}
	return hs
}

// handlerAllocs is the mean allocation count of the real handler over
// requests served by a fresh warmed server.
func handlerAllocs(w *Workload, hreqs []*http.Request) float64 {
	hs := warmHandler(w)
	recs := make([]*httptest.ResponseRecorder, len(hreqs))
	for i := range recs {
		recs[i] = httptest.NewRecorder()
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i, hr := range hreqs {
		hs.ServeHTTP(recs[i], hr)
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(max(1, len(hreqs)))
}

func hreqsFor(reqs []Request) []*http.Request {
	out := make([]*http.Request, len(reqs))
	for i := range reqs {
		out[i] = httpRequest(&reqs[i])
	}
	return out
}

// httpRequest builds the in-process request for one generated call.
func httpRequest(r *Request) *http.Request {
	hr := httptest.NewRequest(http.MethodPost, "/v2/plan", bytes.NewReader(r.Body))
	hr.Header.Set("Content-Type", "application/json")
	if r.Binary {
		hr.Header.Set("Accept", service.ContentTypeBinary)
	}
	return hr
}

// layerNames are the layer spans of a replayed request, in serve order.
var layerNames = []string{
	"service.decode", "service.parse", "service.twin_parse", "resharding.cache_lookup",
	"resharding.plan", "resharding.warm", "resharding.simulate", "service.encode",
	"resharding.cache_install", "service.write",
}

// layerMetrics turns the spans and the three timed passes into the
// per-layer figures. Layer figures are per request (a layer a request
// skips counts zero), so they add up to the replayed request; probe
// figures are per call.
func layerMetrics(res *result, tr *tracer, outs []*replayed, handler, untraced, rtt []float64, handlerAllocs float64) {
	keep := undisturbed(rtt, handler, requestTimes(tr.spans, len(outs)), untraced)
	kept := 0
	for _, k := range keep {
		if k {
			kept++
		}
	}
	n := float64(kept)
	lt := totals(tr.spans, keep)
	us := func(s float64) float64 { return s * 1e6 }
	perReq := func(name string) float64 { return us(lt.layer[name] / n) }
	perCall := func(name string) float64 {
		if lt.probeCalls[name] == 0 {
			return 0
		}
		return us(lt.probe[name] / float64(lt.probeCalls[name]))
	}
	var layers float64
	for _, name := range layerNames {
		layers += perReq(name)
	}
	handlerUS := us(keptMean(handler, keep))
	rttUS := us(keptMean(rtt, keep))
	replayUS := us(lt.requests / n)
	transport := rttUS - handlerUS

	res.add("service.handler_us", handlerUS, "us", spread(chunked(handler, 5, mean)))
	res.add("service.handler_self_us", handlerUS-replayUS, "us", 0)
	res.add("service.handler_allocs", handlerAllocs, "count", 0)
	res.add("service.decode_us", perReq("service.decode"), "us", 0)
	res.add("service.parse_us", perReq("service.parse"), "us", 0)
	res.add("service.twin_parse_us", perReq("service.twin_parse"), "us", 0)
	res.add("service.encode_us", perReq("service.encode"), "us", 0)
	res.add("service.write_us", perReq("service.write"), "us", 0)
	res.add("service.transport_us", transport, "us", 0)
	res.add("mesh.topology_us", perCall("mesh.topology"), "us", 0)
	res.add("mesh.faulted_us", perCall("mesh.faulted"), "us", 0)
	res.add("sharding.decompose_us", perCall("sharding.decompose"), "us", 0)
	res.add("resharding.cache_key_us", perCall("resharding.cache_key"), "us", 0)
	res.add("resharding.cache_lookup_us", perReq("resharding.cache_lookup"), "us", 0)
	res.add("resharding.plan_us", perReq("resharding.plan"), "us", 0)
	res.add("resharding.warm_us", perReq("resharding.warm"), "us", 0)
	res.add("resharding.simulate_us", perReq("resharding.simulate"), "us", 0)
	res.add("resharding.cache_install_us", perReq("resharding.cache_install"), "us", 0)
	res.add("schedule.ensemble_us", perCall("schedule.ensemble"), "us", 0)
	res.add("schedule.greedy_us", perCall("schedule.greedy"), "us", 0)

	var units, ops, opsN, dfs, impacted, warmN float64
	var plans []*resharding.Plan
	for _, o := range outs {
		if o == nil {
			continue
		}
		units += float64(len(o.task.Units))
		if o.numOps > 0 {
			ops += float64(o.numOps)
			opsN++
		}
		if o.simulate && len(plans) < 200 {
			plans = append(plans, o.plan)
		}
		if o.warm != nil {
			warmN++
			dfs += float64(o.warm.DFSNodes)
			impacted += float64(o.warm.ImpactedUnits) / float64(max(1, o.warm.TotalUnits))
		}
	}
	res.add("sharding.units", units/n, "count", 0)
	res.add("netsim.ops", ops/max(1, opsN), "count", 0)
	res.add("resharding.simulate_allocs", simulateAllocs(plans), "count", 0)
	res.add("resharding.warm.dfs_nodes", dfs/max(1, warmN), "count", 0)
	res.add("resharding.warm.impacted_ratio", impacted/max(1, warmN), "ratio", 0)
	res.add("unexplained_us", rttUS-transport-layers, "us", 0)
	res.add("trace_overhead_ratio", replayUS/us(keptMean(untraced, keep)), "ratio", 0)

	res.notes = append(res.notes, fmt.Sprintf("round trip %.1fus = transport %.1fus + layers %.1fus + unexplained %.1fus (%d of %d requests; %d disturbed on some path)",
		rttUS, transport, layers, rttUS-transport-layers, kept, len(outs), len(outs)-kept))
	for _, name := range layerNames {
		if v := perReq(name); v > 0 {
			res.notes = append(res.notes, fmt.Sprintf("  layer %-26s %9.1fus %5.1f%% of round trip", name, v, 100*v/rttUS))
		}
	}
}

// simulateAllocs is the mean allocation count of one trace-free
// simulation over a sample of the replayed plans.
func simulateAllocs(plans []*resharding.Plan) float64 {
	if len(plans) == 0 {
		return 0
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, p := range plans {
		_, _ = p.SimulateNoTrace()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(len(plans))
}

// statsMetrics derives the server-counter figures from two /v2/stats
// snapshots around the closed-loop phase.
func statsMetrics(res *result, a, b *service.StatsResponse) {
	ratio := func(x, y float64) float64 {
		if y == 0 {
			return 0
		}
		return x / y
	}
	hits := float64(b.Cache.Hits - a.Cache.Hits)
	misses := float64(b.Cache.Misses - a.Cache.Misses)
	res.add("service.coalesced_ratio", ratio(float64(b.Plan.Coalesced-a.Plan.Coalesced), float64(b.Plan.Requests-a.Plan.Requests)), "ratio", 0)
	res.add("resharding.cache.hit_ratio", ratio(hits, hits+misses), "ratio", 0)
	res.add("resharding.cache.evictions", float64(b.Cache.Evictions-a.Cache.Evictions), "count", 0)
	ra, rb := a.Replan, b.Replan
	identity := float64(rb.WarmIdentity - ra.WarmIdentity)
	search := float64(rb.WarmSearch - ra.WarmSearch)
	rejected := float64(rb.WarmRejected - ra.WarmRejected)
	fills := identity + search + rejected + float64(rb.WarmInvalid-ra.WarmInvalid) + float64(rb.Cold-ra.Cold)
	res.add("resharding.warm.identity_ratio", ratio(identity, fills), "ratio", 0)
	res.add("resharding.warm.search_ratio", ratio(search, fills), "ratio", 0)
	res.add("resharding.warm.incumbent_ratio", ratio(rejected, fills), "ratio", 0)
}
