package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"
)

// benchmarkSpec is the part of the repository's BENCHMARK.json the smoke
// test checks the benchmark against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke builds planserver and runs every workload of BENCHMARK.json
// briefly, end to end and traced: no check may fail, and each run must
// report exactly the metrics BENCHMARK.json declares, with their units.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs planserver")
	}
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "planserver")
	if out, err := exec.Command("go", "build", "-o", bin, "alpacomm/cmd/planserver").CombinedOutput(); err != nil {
		t.Fatalf("building planserver: %v\n%s", err, out)
	}
	want := func(ms []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name+" "+m.Unit)
		}
		slices.Sort(out)
		return out
	}
	got := func(res *result) []string {
		var out []string
		for _, m := range res.metrics {
			out = append(out, m.Name+" "+m.Unit)
		}
		slices.Sort(out)
		return out
	}
	for _, wl := range spec.Workloads {
		t.Run(wl.Name, func(t *testing.T) {
			w, err := NewWorkload(wl.Name, 1)
			if err != nil {
				t.Fatal(err)
			}
			cfg := &config{workload: wl.Name, seed: 1, seconds: 1, rates: map[string]float64{wl.Name: 200},
				server: bin, setups: 2, out: t.TempDir(), conns: 2, traceReqs: 40}
			res, err := runEndToEnd(cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			if res.failed > 0 || res.attempted == 0 {
				t.Errorf("end to end: %d of %d failed: %v", res.failed, res.attempted, res.errs)
			}
			if g, w := got(res), want(spec.EndToEnd); !slices.Equal(g, w) {
				t.Errorf("end-to-end metrics %v, BENCHMARK.json declares %v", g, w)
			}
			res, err = runTraced(cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			if res.failed > 0 {
				t.Errorf("traced: %d of %d failed: %v", res.failed, res.attempted, res.errs)
			}
			if g, w := got(res), want(spec.PerLayer); !slices.Equal(g, w) {
				t.Errorf("per-layer metrics %v, BENCHMARK.json declares %v", g, w)
			}
		})
	}
}
