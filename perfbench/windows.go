package main

import (
	"fmt"
	"sort"
	"time"
)

// The measured seconds of a run alternate between closed-loop and
// open-loop segments of one second each, and the timing metrics pool the
// samples of a phase's segments in which the machine was calm. On a shared
// virtual machine the hypervisor at times gives a large share of the CPUs
// to other guests (steal time), in episodes of some seconds to minutes; a
// segment in which that happened measures the neighbours, not the
// program. Alternating the phases gives both the calm stretches of a run.
// The selection looks only at the machine's steal share, never at the
// metric, so a slower program reads slower in every segment.

// maxCalmSteal is the highest steal share of a calm segment or set-up.
const maxCalmSteal = 0.05

// settle is the pause before each open-loop segment, so that the server
// finishes the work the closed loop left it (a garbage collection cycle)
// before the segment's CPU is read.
const settle = 50 * time.Millisecond

// segmentFor is the length of the segments a phase of length dur is cut
// into: one second, or a fifth of a phase shorter than five seconds.
func segmentFor(dur time.Duration) time.Duration {
	return min(time.Second, dur/5)
}

// win is one segment of a phase: the latencies of its requests, its
// length, the server CPU it used and the machine's steal share.
type win struct {
	lat     []float64
	seconds float64
	cpu     float64
	steal   float64
}

// segment runs one segment of a phase between two readings of the
// server's CPU seconds and the machine's steal and total CPU ticks.
func segment(p *serverProc, run func() *phase) (*phase, win, error) {
	cpu0, err0 := p.cpuSeconds()
	steal0, total0 := cpuStat()
	ph := run()
	cpu1, err1 := p.cpuSeconds()
	steal1, total1 := cpuStat()
	return ph, win{
		lat:     ph.lat,
		seconds: ph.elapsed.Seconds(),
		cpu:     cpu1 - cpu0,
		steal:   stealShare(steal1-steal0, total1-total0),
	}, firstErr(err0, err1)
}

func stealShare(steal, total int64) float64 {
	return float64(steal) / float64(max(1, total))
}

// calm marks the entries whose steal share is at most maxCalmSteal, or,
// when fewer than a quarter of them are, the least stolen quarter.
func calm(steal []float64) []bool {
	keep := make([]bool, len(steal))
	n, quarter := 0, (len(steal)+3)/4
	for i, s := range steal {
		if keep[i] = s <= maxCalmSteal; keep[i] {
			n++
		}
	}
	if n >= quarter {
		return keep
	}
	idx := make([]int, len(steal))
	for i := range idx {
		idx[i] = i
		keep[i] = false
	}
	sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
	for _, i := range idx[:quarter] {
		keep[i] = true
	}
	return keep
}

// calmWindows returns the calm segments.
func calmWindows(ws []win) []win {
	steal := make([]float64, len(ws))
	for i, w := range ws {
		steal[i] = w.steal
	}
	var out []win
	for i, ok := range calm(steal) {
		if ok {
			out = append(out, ws[i])
		}
	}
	return out
}

// pool merges segments into one: their latencies, seconds and server CPU.
func pool(ws []win) win {
	var p win
	for _, w := range ws {
		p.lat = append(p.lat, w.lat...)
		p.seconds += w.seconds
		p.cpu += w.cpu
	}
	return p
}

// calmSetups returns the calm set-ups.
func calmSetups(ss []setup) []setup {
	steal := make([]float64, len(ss))
	for i, s := range ss {
		steal[i] = s.steal
	}
	var out []setup
	for i, ok := range calm(steal) {
		if ok {
			out = append(out, ss[i])
		}
	}
	return out
}

// calmNote summarises a phase's segments for the run's notes.
func calmNote(ws []win) string {
	n := 0
	var worst float64
	for _, w := range ws {
		if w.steal <= maxCalmSteal {
			n++
		}
		worst = max(worst, w.steal)
	}
	return fmt.Sprintf("%d of %d segments calm (steal <= %.0f%%, worst %.0f%%)", n, len(ws), 100*maxCalmSteal, 100*worst)
}
