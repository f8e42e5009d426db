package schedule

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// referenceGreedyRandomized is the pre-refactor GreedyRandomized: per-trial
// map host sets cleared on every trial, every trial evaluated, and a
// reflection-based stable sort per round. The optimized implementation
// must return the identical plan and leave the RNG in the identical
// state, so this differential test pins both the dense host-indexed
// state and the bound-based trial skipping to the original semantics.
func referenceGreedyRandomized(tasks []Task, trials int, rng *rand.Rand) Plan {
	if trials < 1 {
		trials = 1
	}
	remaining := make([]int, len(tasks))
	for i := range remaining {
		remaining[i] = i
	}
	load := map[int]float64{}
	p := Plan{Sender: map[int]int{}}
	type pick struct {
		taskIdx int
		sender  int
	}
	perm := make([]int, 0, len(tasks))
	var batch, bestBatch []pick
	usedSend := map[int]bool{}
	usedRecv := map[int]bool{}
	inBatch := make([]bool, len(tasks))
	rest := make([]int, 0, len(tasks))
	for len(remaining) > 0 {
		bestBatch = bestBatch[:0]
		bestHosts := -1
		for trial := 0; trial < trials; trial++ {
			perm = append(perm[:0], remaining...)
			rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
			clear(usedSend)
			clear(usedRecv)
			batch = batch[:0]
			hosts := 0
			for _, ti := range perm {
				t := &tasks[ti]
				conflict := false
				for _, r := range t.ReceiverHosts {
					if usedRecv[r] {
						conflict = true
						break
					}
				}
				if conflict {
					continue
				}
				s, sLoad := -1, math.Inf(1)
				for _, c := range t.SenderHosts {
					if usedSend[c] {
						continue
					}
					if load[c] < sLoad || (load[c] == sLoad && c < s) {
						s, sLoad = c, load[c]
					}
				}
				if s < 0 {
					continue
				}
				usedSend[s] = true
				for _, r := range t.ReceiverHosts {
					usedRecv[r] = true
				}
				batch = append(batch, pick{ti, s})
				hosts += 1 + len(t.ReceiverHosts)
			}
			if hosts > bestHosts {
				bestHosts = hosts
				bestBatch = append(bestBatch[:0], batch...)
			}
		}
		sort.SliceStable(bestBatch, func(a, b int) bool {
			return tasks[bestBatch[a].taskIdx].Duration > tasks[bestBatch[b].taskIdx].Duration
		})
		for _, b := range bestBatch {
			t := &tasks[b.taskIdx]
			p.Sender[t.ID] = b.sender
			p.Order = append(p.Order, t.ID)
			load[b.sender] += t.Duration
			inBatch[b.taskIdx] = true
		}
		rest = rest[:0]
		for _, ti := range remaining {
			if !inBatch[ti] {
				rest = append(rest, ti)
			}
		}
		remaining, rest = rest, remaining
	}
	return p
}

// randomGreedyInstance generates 1-24 tasks over a few hosts with
// deliberately repeated sender and receiver hosts inside a task, sparse
// non-contiguous host ids, shared shapes and duplicate durations (ties in
// the launch sort) — the inputs that stress the dense host remap, the
// stamp sets and the per-round bound.
func randomGreedyInstance(rng *rand.Rand) []Task {
	hosts := 1 + rng.Intn(6)
	stride := 1 + rng.Intn(5) // sparse host ids: 0, stride, 2*stride, ...
	host := func() int { return stride * rng.Intn(hosts) }
	n := 1 + rng.Intn(24)
	tasks := make([]Task, n)
	for i := range tasks {
		senders := make([]int, 1+rng.Intn(3))
		for j := range senders {
			senders[j] = host()
		}
		receivers := make([]int, 1+rng.Intn(3))
		for j := range receivers {
			receivers[j] = host()
		}
		tasks[i] = Task{
			ID:            100 + 3*i,
			SenderHosts:   senders,
			ReceiverHosts: receivers,
			Duration:      float64(1 + rng.Intn(4)),
		}
	}
	return tasks
}

// TestGreedyRandomizedMatchesReference runs the optimized scheduler and
// the reference on identically seeded RNGs over random instances and
// 1-40 trials. The plans must be identical, and so must the next value
// each RNG yields: skipped trials still consume exactly the shuffles the
// reference draws, so every later round — and every later RNG consumer —
// sees the same stream.
func TestGreedyRandomizedMatchesReference(t *testing.T) {
	gen := rand.New(rand.NewSource(12))
	for iter := 0; iter < 2000; iter++ {
		tasks := randomGreedyInstance(gen)
		trials := 1 + gen.Intn(40)
		seed := gen.Int63()
		gotRNG := rand.New(rand.NewSource(seed))
		wantRNG := rand.New(rand.NewSource(seed))
		got := GreedyRandomized(tasks, trials, gotRNG)
		want := referenceGreedyRandomized(tasks, trials, wantRNG)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("iter %d (trials %d): plan diverged from reference\n got: %+v\nwant: %+v\ntasks: %+v",
				iter, trials, got, want, tasks)
		}
		if g, w := gotRNG.Int63(), wantRNG.Int63(); g != w {
			t.Fatalf("iter %d (trials %d): RNG stream diverged after the call: next Int63 %d, reference %d",
				iter, trials, g, w)
		}
	}
}

// TestGreedyRandomizedEmpty pins the degenerate instance: no tasks yields
// an empty plan and draws nothing from the RNG.
func TestGreedyRandomizedEmpty(t *testing.T) {
	got := GreedyRandomized(nil, 8, rand.New(rand.NewSource(1)))
	want := referenceGreedyRandomized(nil, 8, rand.New(rand.NewSource(1)))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("empty instance: got %+v, want %+v", got, want)
	}
}

// TestGreedyRandomizedAllocsIndependentOfTrials pins the allocation claim
// of GreedyRandomized's doc comment: scratch is sized once per call, so
// one trial and forty trials allocate exactly as much.
func TestGreedyRandomizedAllocsIndependentOfTrials(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	tasks := make([]Task, 24)
	for i := range tasks {
		tasks[i] = Task{
			ID:            i,
			SenderHosts:   []int{i % 3, 3 + i%2},
			ReceiverHosts: []int{5 + i%4},
			Duration:      float64(1 + i%5),
		}
	}
	rng := rand.New(rand.NewSource(1))
	allocs := func(trials int) float64 {
		return testing.AllocsPerRun(20, func() { GreedyRandomized(tasks, trials, rng) })
	}
	if one, forty := allocs(1), allocs(40); one != forty {
		t.Errorf("GreedyRandomized allocs: %v with 1 trial, %v with 40 trials; want equal", one, forty)
	}
}
