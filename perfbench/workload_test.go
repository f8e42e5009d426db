package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"alpacomm/internal/resharding"
	"alpacomm/internal/service"
)

// memoBound is the server's parse-memo capacity; the memo is unexported,
// and its bound equals the plan cache's default capacity.
const memoBound = service.DefaultCacheCapacity

func TestSameSeedSameRequests(t *testing.T) {
	for _, name := range []string{wlHot, wlCold, wlChurn} {
		a, err := NewWorkload(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := NewWorkload(name, 7)
		other, _ := NewWorkload(name, 8)
		differs := 0
		for _, stream := range []uint64{streamSetup, streamClosed, streamOpen, streamTrace} {
			for i := 0; i < 300; i++ {
				ra, rb := a.At(stream, i), b.At(stream, i)
				if !bytes.Equal(ra.Body, rb.Body) || ra.Binary != rb.Binary {
					t.Fatalf("%s: stream %d request %d differs between two workloads of one seed", name, stream, i)
				}
				if !bytes.Equal(ra.Body, other.At(stream, i).Body) {
					differs++
				}
			}
		}
		if differs == 0 {
			t.Errorf("%s: seeds 7 and 8 generated identical sequences", name)
		}
	}
}

func TestHotFitsCacheColdExceedsIt(t *testing.T) {
	hot, err := NewWorkload(wlHot, 3)
	if err != nil {
		t.Fatal(err)
	}
	keys, bodies := map[string]bool{}, map[string]bool{}
	for i := 0; i < 20000; i++ {
		r := hot.At(streamClosed, i)
		k, err := cacheKey(&r.Plan)
		if err != nil {
			t.Fatal(err)
		}
		keys[k] = true
		bodies[string(r.Body)] = true
	}
	if len(keys) != len(templates)*hotPerTemplate || len(bodies) != len(keys) {
		t.Errorf("hot traffic has %d keys and %d bodies, want %d of each", len(keys), len(bodies), len(templates)*hotPerTemplate)
	}
	if len(keys) > service.DefaultCacheCapacity/4 || len(bodies) > memoBound/4 {
		t.Errorf("hot working set %d is not well under the %d-entry cache and memo", len(keys), service.DefaultCacheCapacity)
	}

	cold, err := NewWorkload(wlCold, 3)
	if err != nil {
		t.Fatal(err)
	}
	keys = map[string]bool{}
	n := 2 * service.DefaultCacheCapacity
	for i := 0; i < n; i++ {
		r := cold.At(streamClosed, i)
		k, err := cacheKey(&r.Plan)
		if err != nil {
			t.Fatal(err)
		}
		keys[k] = true
	}
	if len(keys) != n {
		t.Errorf("%d cold requests carry only %d distinct keys; every cold request must miss", n, len(keys))
	}
}

// TestChurnSplitsWarmModes serves churn traffic from an in-process server
// and reads the warm replan modes back from /v2/stats: link brownouts must
// replan in identity mode and NIC stragglers in search mode, about evenly.
func TestChurnSplitsWarmModes(t *testing.T) {
	w, err := NewWorkload(wlChurn, 5)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(service.New(service.Config{}))
	defer ts.Close()
	c := newClient(ts.Listener.Addr().String(), 2)
	defer c.close()
	if ph := warm(c, w.WarmSet(), 2, nil); ph.failed > 0 {
		t.Fatalf("warm set: %v", ph.errs)
	}
	const n = 400
	reqs := make([]Request, n)
	kinds := map[string]int{}
	for i := range reqs {
		reqs[i] = w.At(streamClosed, i)
		kinds[reqs[i].Fault]++
	}
	if ph := warm(c, reqs, 2, nil); ph.failed > 0 {
		t.Fatalf("churn requests: %v", ph.errs)
	}
	resp, err := http.Get(ts.URL + "/v2/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st service.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	r := st.Replan
	fills := r.WarmIdentity + r.WarmSearch + r.WarmRejected + r.WarmInvalid + r.Cold
	if fills != n || r.Cold != 0 || r.WarmInvalid != 0 {
		t.Fatalf("replan stats %+v: want %d warm fills, none cold or invalid", r, n)
	}
	// Every link brownout leaves the host-level instance unchanged; a
	// straggler whose NIC stays above the boundary's slowest NIC does too.
	if r.WarmIdentity < int64(kinds["link"]) {
		t.Errorf("%d identity replans for %d link overlays", r.WarmIdentity, kinds["link"])
	}
	for mode, v := range map[string]int64{"identity": r.WarmIdentity, "search+incumbent": r.WarmSearch + r.WarmRejected} {
		if share := float64(v) / n; share < 0.4 || share > 0.6 {
			t.Errorf("warm %s share %.2f, want about half (stats %+v)", mode, share, r)
		}
	}
}

// cacheKey returns the server's canonical key of a request.
func cacheKey(req *service.PlanRequest) (string, error) {
	task, err := parseTask(req)
	if err != nil {
		return "", err
	}
	opts, err := service.NormalizedOptions(req.Options)
	if err != nil {
		return "", err
	}
	return resharding.CacheKey(task, opts), nil
}
