// Command perfbench is the repository benchmark: it starts the real
// planserver binary with default flags in its own process and drives
// /v2/plan over loopback TCP from this process under one of three seeded
// workloads (hot, cold, churn), each in a closed-loop capacity phase and a
// fixed-rate open-loop phase. With -trace 1 it instead reports per-layer
// costs: it replays a seeded request sequence through each layer's public
// functions in process, records spans, and sets them against the same
// sequence's round trips to the live server.
//
// Build and run it from the repository root with perfbench/run.sh, which
// builds both binaries into .bench_build:
//
//	bash perfbench/run.sh --open-rate hot=3000,cold=500,churn=500 \
//		--workload cold --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is non-zero when
// any check failed: a non-200 response, a transport error, a hot response
// that differs from its first serving, JSON/binary disagreement, or a
// served plan that differs from a direct re-plan.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported figure with its within-run sample spread.
type metric struct {
	Name   string  `json:"name"`
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Spread float64 `json:"spread"`
}

// config is the parsed command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	rates    map[string]float64
	server   string
	out      string
	// setups, conns (connections and generator workers) and traceReqs
	// are fixed for the benchmark; tests shrink them.
	setups    int
	conns     int
	traceReqs int
}

const (
	// setups is how many times a run starts the server and plans the warm
	// set; setup_s is the median.
	setups = 9
	// traceRequests is how many requests a traced run replays per path.
	traceRequests = 800
)

// sampleEvery is the verification sample rate per workload: about one
// response in this many is re-planned directly after its phase.
var sampleEvery = map[string]int{wlHot: 1500, wlCold: 150, wlChurn: 150}

// runLimit bounds one run; a run that somehow hangs exits non-zero
// without a result instead of stalling whoever drives the benchmark.
const runLimit = 170 * time.Second

func main() {
	time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", runLimit)
		os.Exit(1)
	})
	os.Exit(run())
}

func run() int {
	var cfg config
	var rates string
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: hot, cold or churn")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of every generated request")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 = per-layer traced run, 0 = end-to-end run")
	flag.StringVar(&rates, "open-rate", "", "open-loop offered rate per workload, requests/s, as name=rate,name=rate (required; BENCHMARK.json sets it)")
	flag.StringVar(&cfg.server, "planserver", filepath.Join(".bench_build", "bin", "planserver"), "planserver binary")
	flag.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for result and span files")
	flag.Parse()
	cfg.setups, cfg.conns, cfg.traceReqs = setups, runtime.NumCPU(), traceRequests
	cfg.trace = trace == 1
	var err error
	if rates == "" {
		fmt.Fprintln(os.Stderr, "perfbench: -open-rate is required; the command in BENCHMARK.json sets it")
		return 2
	}
	if cfg.rates, err = parseRates(rates); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if _, ok := cfg.rates[cfg.workload]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: no -open-rate for workload %q\n", cfg.workload)
		return 2
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive")
		return 2
	}
	w, err := NewWorkload(cfg.workload, cfg.seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}

	steal0, total0 := cpuStat()
	var res *result
	if cfg.trace {
		res, err = runTraced(&cfg, w)
	} else {
		res, err = runEndToEnd(&cfg, w)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	steal1, total1 := cpuStat()
	res.stealShare = float64(steal1-steal0) / float64(max(1, total1-total0))
	res.report(&cfg)
	if res.failed > 0 {
		return 1
	}
	return 0
}

// parseRates parses "name=rate,name=rate".
func parseRates(s string) (map[string]float64, error) {
	out := map[string]float64{}
	for _, part := range strings.Split(s, ",") {
		name, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		r, err := strconv.ParseFloat(v, 64)
		if !ok || err != nil || r <= 0 {
			return nil, fmt.Errorf("bad -open-rate entry %q (want name=requests_per_second)", part)
		}
		out[name] = r
	}
	return out, nil
}

// result is one run's outcome.
type result struct {
	attempted, failed int
	metrics           []metric
	errs              []string
	notes             []string
	// stealShare is the share of the machine's CPU time the hypervisor
	// gave to other guests during the run; wall-clock metrics degrade with
	// it, CPU-time metrics do not.
	stealShare float64
}

func (r *result) add(name string, value float64, unit string, spread float64) {
	r.metrics = append(r.metrics, metric{Name: name, Value: value, Unit: unit, Spread: spread})
}

// absorb adds a phase's request and failure counts.
func (r *result) absorb(phases ...*phase) {
	for _, ph := range phases {
		if ph == nil {
			continue
		}
		r.attempted += ph.attempted
		r.failed += ph.failed
		for _, e := range ph.errs {
			if len(r.errs) < 10 {
				r.errs = append(r.errs, e)
			}
		}
	}
}

// report prints the metric table and the run's environment, writes the
// result file, and prints the JSON result as the last line.
func (r *result) report(cfg *config) {
	env := environment(cfg)
	env["cpu_steal_share"] = strconv.FormatFloat(r.stealShare, 'f', 4, 64)
	fmt.Printf("perfbench %s seed=%d trace=%v\n", cfg.workload, cfg.seed, cfg.trace)
	for _, n := range r.notes {
		fmt.Println("  " + n)
	}
	for _, m := range r.metrics {
		fmt.Printf("  %-34s %14.4f %-6s spread %.3f\n", m.Name, m.Value, m.Unit, m.Spread)
	}
	for _, e := range r.errs {
		fmt.Println("  FAILED:", e)
	}
	keys := make([]string, 0, len(env))
	for k := range env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  env %s=%s\n", k, env[k])
	}

	file := map[string]interface{}{
		"workload": cfg.workload, "seed": cfg.seed, "trace": cfg.trace,
		"environment": env, "metrics": r.metrics, "attempted": r.attempted,
		"failed": r.failed, "errors": r.errs, "notes": r.notes,
	}
	path := filepath.Join(cfg.out, "results", fmt.Sprintf("%s-seed%d-trace%d.json", cfg.workload, cfg.seed, b2i(cfg.trace)))
	if err := writeJSONFile(path, file); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing result file:", err)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]value{}
	for _, m := range r.metrics {
		ms[m.Name] = value{m.Value, m.Unit}
	}
	last, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, max(1, r.attempted), r.failed, ms})
	fmt.Println(string(last))
}

func writeJSONFile(path string, v interface{}) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// environment records what a result depends on besides the code.
func environment(cfg *config) map[string]string {
	return map[string]string{
		"machine":    machine(),
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"commit":     commit(),
		"seed":       strconv.FormatInt(cfg.seed, 10),
		"seconds":    strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"open_rate":  strconv.FormatFloat(cfg.rates[cfg.workload], 'g', -1, 64),
		"conns":      strconv.Itoa(cfg.conns),
		"time":       time.Now().UTC().Format(time.RFC3339),
	}
}

// cpuStat reads the machine-wide steal and total CPU ticks from
// /proc/stat; zeros when it cannot be read.
func cpuStat() (steal, total int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// machine names the CPU model and kernel.
func machine() string {
	model := "unknown cpu"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	return fmt.Sprintf("%s, %s %s", model, runtime.GOOS+"/"+runtime.GOARCH, strings.TrimSpace(string(kernel)))
}

// commit reads the checked-out commit from .git without running git;
// "unknown" outside a repository.
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	if packed, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if id, name, ok := strings.Cut(line, " "); ok && name == ref {
				return id
			}
		}
	}
	return "unknown"
}
