package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"alpacomm/internal/service"
)

// client drives /v2/plan over loopback TCP with at most conns keep-alive
// connections. Each request is written and its response read on the
// calling goroutine over a plain HTTP/1.1 connection: no transport
// goroutines, so the generator spends little CPU and few context
// switches per request on the cores it shares with the server.
type client struct {
	addr string
	// pool holds one slot per connection; a request takes a slot for its
	// round trip, so at most conns requests are ever in flight.
	pool chan *conn
}

type conn struct {
	nc net.Conn
	br *bufio.Reader
	bw *bufio.Writer
}

func newClient(addr string, conns int) *client {
	c := &client{addr: addr, pool: make(chan *conn, conns)}
	for i := 0; i < conns; i++ {
		c.pool <- &conn{}
	}
	return c
}

// ioTimeout bounds every round trip of the generator: a server that stops
// answering fails the request instead of hanging the run.
const ioTimeout = 10 * time.Second

// do posts one request and reads the whole response body into buf.
func (c *client) do(req *Request, buf *bytes.Buffer) (int, error) {
	cn := <-c.pool
	defer func() { c.pool <- cn }()
	status, err := cn.roundTrip(c.addr, req, buf)
	if err != nil {
		cn.close()
	}
	return status, err
}

func (cn *conn) roundTrip(addr string, req *Request, buf *bytes.Buffer) (int, error) {
	if cn.nc == nil {
		nc, err := net.DialTimeout("tcp", addr, ioTimeout)
		if err != nil {
			return 0, err
		}
		cn.nc, cn.br, cn.bw = nc, bufio.NewReaderSize(nc, 16<<10), bufio.NewWriterSize(nc, 16<<10)
	}
	if err := cn.nc.SetDeadline(time.Now().Add(ioTimeout)); err != nil {
		return 0, err
	}
	bw := cn.bw
	bw.WriteString("POST /v2/plan HTTP/1.1\r\nHost: ")
	bw.WriteString(addr)
	bw.WriteString("\r\nContent-Type: application/json\r\n")
	if req.Binary {
		bw.WriteString("Accept: " + service.ContentTypeBinary + "\r\n")
	}
	bw.WriteString("Content-Length: ")
	bw.WriteString(strconv.Itoa(len(req.Body)))
	bw.WriteString("\r\n\r\n")
	bw.Write(req.Body)
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	resp, err := http.ReadResponse(cn.br, nil)
	if err != nil {
		return 0, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err == nil && resp.Close {
		err = fmt.Errorf("server closed the connection")
	}
	return resp.StatusCode, err
}

func (cn *conn) close() {
	if cn.nc != nil {
		cn.nc.Close()
		cn.nc = nil
	}
}

func (c *client) close() {
	for i := 0; i < cap(c.pool); i++ {
		cn := <-c.pool
		cn.close()
		c.pool <- cn
	}
}

// kept is one served response held for verification after the phase.
type kept struct {
	req  Request
	body []byte
}

// phase is what one load phase, or one segment of it, observed.
type phase struct {
	lat, late []float64 // seconds
	// sendLat is each open-loop request's latency from its actual send.
	sendLat   []float64
	attempted int
	failed    int
	served    int
	elapsed   time.Duration
	makespans []float64 // seconds, one per served response (open phase)
	kept      []kept
	errs      []string
}

func (p *phase) fail(format string, args ...interface{}) {
	p.failed++
	if len(p.errs) < 5 {
		p.errs = append(p.errs, fmt.Sprintf(format, args...))
	}
}

// merge folds a worker's phase into p.
func (p *phase) merge(o *phase) {
	p.lat = append(p.lat, o.lat...)
	p.late = append(p.late, o.late...)
	p.sendLat = append(p.sendLat, o.sendLat...)
	p.attempted += o.attempted
	p.elapsed += o.elapsed
	p.served += o.served
	p.makespans = append(p.makespans, o.makespans...)
	p.kept = append(p.kept, o.kept...)
	for _, e := range o.errs {
		if len(p.errs) < 5 {
			p.errs = append(p.errs, e)
		}
	}
	p.failed += o.failed
}

// mergeParts merges the workers' phases.
func mergeParts(parts []*phase, elapsed time.Duration) *phase {
	out := &phase{elapsed: elapsed}
	for _, ph := range parts {
		out.merge(ph)
	}
	return out
}

// checker inspects every response as it arrives. Hot responses must be
// byte-identical to the first body served for the same boundary and wire
// format (every hot request is a pre-serialized hit); all responses in the
// seeded sample are kept for direct re-planning after the phase.
type checker struct {
	w                *Workload
	stream           uint64
	sampleRate       int
	collectMakespans bool

	refs *hotRefs
}

// hotRefs holds the first body served per (hot boundary, wire format); it
// is shared by every phase of a run.
type hotRefs struct {
	mu sync.Mutex
	m  map[[2]int][]byte
}

func newChecker(w *Workload, stream uint64, sampleRate int, makespans bool, refs *hotRefs) *checker {
	return &checker{w: w, stream: stream, sampleRate: sampleRate, collectMakespans: makespans, refs: refs}
}

// observe records one response into the worker's phase.
func (c *checker) observe(ph *phase, i int, req *Request, status int, body []byte) {
	if status != http.StatusOK {
		ph.fail("request %d: status %d: %.200s", i, status, body)
		return
	}
	if req.Boundary >= 0 && req.Plan.Faults == nil {
		k := [2]int{req.Boundary, b2i(req.Binary)}
		c.refs.mu.Lock()
		ref, ok := c.refs.m[k]
		if !ok {
			c.refs.m[k] = bytes.Clone(body)
		}
		c.refs.mu.Unlock()
		if ok && !bytes.Equal(ref, body) {
			// A coalesced flag is the only legitimate difference.
			a, errA := decodeResponse(ref, req.Binary)
			b, errB := decodeResponse(body, req.Binary)
			if errA != nil || errB != nil || !sameResponse(a, b) {
				ph.fail("request %d: hot boundary %d served two different plans", i, req.Boundary)
				return
			}
		}
	}
	ph.served++
	if c.collectMakespans {
		m, err := makespanOf(body, req.Binary)
		if err != nil || m <= 0 {
			ph.fail("request %d: no makespan in response: %v", i, err)
			return
		}
		ph.makespans = append(ph.makespans, m)
	}
	if sampled(c.w.Seed, c.stream, i, c.sampleRate) {
		ph.kept = append(ph.kept, kept{req: *req, body: bytes.Clone(body)})
	}
}

var makespanField = []byte(`"makespan_seconds":`)

// makespanOf extracts makespan_seconds from a response without decoding
// all of it: JSON bodies are scanned for the field, binary frames decoded.
func makespanOf(body []byte, binary bool) (float64, error) {
	if binary {
		r, err := service.DecodePlanFrame(body)
		if err != nil {
			return 0, err
		}
		return r.MakespanSeconds, nil
	}
	i := bytes.Index(body, makespanField)
	if i < 0 {
		return 0, fmt.Errorf("field missing")
	}
	rest := body[i+len(makespanField):]
	j := bytes.IndexAny(rest, ",}")
	if j < 0 {
		return 0, fmt.Errorf("field unterminated")
	}
	return strconv.ParseFloat(string(rest[:j]), 64)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// closedLoop runs conns workers that each send the stream's next request
// as soon as their previous one returns, for dur. Requests are taken in
// index order from first on, from one counter, so the request set is the
// seeded sequence.
func closedLoop(c *client, w *Workload, stream uint64, conns, first int, dur time.Duration, chk *checker) *phase {
	var next atomic.Int64
	next.Store(int64(first))
	parts := make([]*phase, conns)
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for k := range parts {
		ph := &phase{}
		parts[k] = ph
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				req := w.At(stream, i)
				t0 := time.Now()
				status, err := c.do(&req, &buf)
				ph.attempted++
				if err != nil {
					ph.fail("request %d: %v", i, err)
					continue
				}
				ph.lat = append(ph.lat, time.Since(t0).Seconds())
				chk.observe(ph, i, &req, status, buf.Bytes())
			}
		}()
	}
	wg.Wait()
	return mergeParts(parts, time.Since(start))
}

// arrivals returns the seeded Poisson schedule of an open-loop phase: n
// due offsets with exponential gaps at the given rate.
func arrivals(seed int64, stream uint64, rate float64, n int) []time.Duration {
	r := rng(seed, stream, math.MaxUint32)
	out := make([]time.Duration, n)
	var t float64
	for i := range out {
		t += r.ExpFloat64() / rate
		out[i] = time.Duration(t * 1e9)
	}
	return out
}

// openLoop offers the stream's requests first, first+1, ... on a fixed
// schedule: request first+j is due at due[j] after the call. Each of conns
// workers takes the next due request, waits for its due time when it is
// early, and sends it; a request that is due while every worker is busy
// waits. Latency runs from the due time, so that wait counts (no
// coordinated omission), and late records how far behind schedule each
// send started. The call returns when every request has been answered.
func openLoop(c *client, w *Workload, stream uint64, conns, first int, due []time.Duration, chk *checker) *phase {
	var next atomic.Int64
	parts := make([]*phase, conns)
	start := time.Now()
	var wg sync.WaitGroup
	for k := range parts {
		ph := &phase{}
		parts[k] = ph
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				j := int(next.Add(1) - 1)
				if j >= len(due) {
					return
				}
				i := first + j
				at := start.Add(due[j])
				waitUntil(at)
				req := w.At(stream, i)
				sent := time.Now()
				status, err := c.do(&req, &buf)
				ph.attempted++
				if err != nil {
					ph.fail("request %d: %v", i, err)
					continue
				}
				done := time.Now()
				ph.lat = append(ph.lat, done.Sub(at).Seconds())
				ph.late = append(ph.late, max(0, sent.Sub(at).Seconds()))
				ph.sendLat = append(ph.sendLat, done.Sub(sent).Seconds())
				chk.observe(ph, i, &req, status, buf.Bytes())
			}
		}()
	}
	wg.Wait()
	return mergeParts(parts, time.Since(start))
}

// waitUntil yields the CPU until t instead of sleeping. On a virtual
// machine a thread asleep in a timer often wakes milliseconds late,
// because its idle virtual CPU has to be scheduled again by the host;
// that lateness would swamp the open-loop latency of a sub-millisecond
// request. A yielding thread keeps its CPU awake, and the kernel still
// runs the server whenever it has work.
func waitUntil(t time.Time) {
	for time.Now().Before(t) {
		_, _, _ = syscall.Syscall(syscall.SYS_SCHED_YIELD, 0, 0, 0)
	}
}

// warm sends every request once over conns connections: the set-up fill.
func warm(c *client, reqs []Request, conns int, chk *checker) *phase {
	var next atomic.Int64
	parts := make([]*phase, conns)
	var wg sync.WaitGroup
	for k := range parts {
		ph := &phase{}
		parts[k] = ph
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				status, err := c.do(&reqs[i], &buf)
				ph.attempted++
				if err != nil {
					ph.fail("warm request %d: %v", i, err)
					continue
				}
				if chk != nil {
					chk.observe(ph, i, &reqs[i], status, buf.Bytes())
				} else if status != http.StatusOK {
					ph.fail("warm request %d: status %d", i, status)
				}
			}
		}()
	}
	wg.Wait()
	return mergeParts(parts, 0)
}

// verifyKept re-plans every kept response directly and counts mismatches
// as failures of the phase.
func verifyKept(ph *phase) int {
	n := 0
	for _, k := range ph.kept {
		n++
		resp, err := decodeResponse(k.body, k.req.Binary)
		if err != nil {
			ph.fail("verify: undecodable response: %v", err)
			continue
		}
		ref, err := replan(&k.req.Plan)
		if err != nil {
			ph.fail("verify: direct re-plan failed: %v", err)
			continue
		}
		if err := ref.check(resp); err != nil {
			ph.fail("verify: served plan differs from direct re-plan of %s: %v", k.req.Body, err)
		}
	}
	return n
}

// parity fetches each of the first n hot boundaries in both wire formats
// and requires the decoded plans to be identical and to match a direct
// re-plan.
func parity(c *client, w *Workload, n int) *phase {
	ph := &phase{}
	var buf bytes.Buffer
	for b := 0; b < min(n, len(w.Hot)); b++ {
		var got [2]*service.PlanResponse
		for f := range got {
			req := Request{Plan: w.Hot[b], Body: w.hotBodies[b], Binary: f == 1, Boundary: b}
			status, err := c.do(&req, &buf)
			ph.attempted++
			if err != nil || status != http.StatusOK {
				ph.fail("parity boundary %d: status %d, %v", b, status, err)
				continue
			}
			if got[f], err = decodeResponse(buf.Bytes(), f == 1); err != nil {
				ph.fail("parity boundary %d: %v", b, err)
			}
		}
		if got[0] == nil || got[1] == nil {
			continue
		}
		if !sameResponse(got[0], got[1]) {
			ph.fail("parity boundary %d: JSON and binary plans differ", b)
			continue
		}
		ref, err := replan(&w.Hot[b])
		if err == nil {
			err = ref.check(got[1])
		}
		if err != nil {
			ph.fail("parity boundary %d: %v", b, err)
		}
	}
	return ph
}
