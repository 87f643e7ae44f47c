package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile: a p99 from 500 samples rests on five points and is not
// reported as p99.
const minBeyond = 10

// tail is one tail-percentile reading: the value at the highest
// percentile not above the wanted one that still has minBeyond samples
// beyond it, the percentile actually used, and the sample count.
type tail struct {
	value  float64
	pct    float64 // effective percentile, e.g. 99 or 98.7
	n      int
	beyond int  // samples above the reported rank
	ok     bool // false when n ≤ minBeyond: no tail can be reported
}

// tailPercentile applies the percentile rule to sorted (ascending)
// samples. It uses nearest rank: rank k = ceil(p·n) holds the p-th
// percentile and n−k samples lie beyond it. When fewer than minBeyond
// samples lie beyond the wanted percentile it falls back to rank
// n−minBeyond, the highest rank that satisfies the rule.
func tailPercentile(sorted []float64, want float64) tail {
	n := len(sorted)
	if n <= minBeyond {
		return tail{n: n}
	}
	k := int(math.Ceil(want / 100 * float64(n)))
	if k < 1 {
		k = 1
	}
	if n-k < minBeyond {
		k = n - minBeyond
	}
	return tail{value: sorted[k-1], pct: 100 * float64(k) / float64(n), n: n, beyond: n - k, ok: true}
}

// median returns the median of sorted samples, averaging the middle
// two of an even count (NaN for no samples).
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// mean returns the arithmetic mean (NaN for no samples).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// latencies is a sample of durations in milliseconds.
type latencies []float64

// summary is the median and p99 of a latency sample with the notes the
// report prints beside them.
type summary struct {
	p50       float64
	p99       tail
	n         int
	p50Note   string
	p99Note   string
	meanValue float64
}

func summarize(xs latencies) (summary, error) {
	if len(xs) == 0 {
		return summary{}, errNoSamples
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	t := tailPercentile(s, 99)
	out := summary{p50: median(s), p99: t, n: len(s), meanValue: mean(s)}
	out.p50Note = fmt.Sprintf("(median, n=%d)", len(s))
	if t.ok {
		out.p99Note = fmt.Sprintf("(p%.4g, n=%d, %d beyond)", t.pct, t.n, t.beyond)
	} else {
		// Too few samples for any tail: report the maximum and say so.
		out.p99 = tail{value: s[len(s)-1], pct: 100, n: len(s)}
		out.p99Note = fmt.Sprintf("(max: only n=%d samples, no percentile has %d beyond)", len(s), minBeyond)
	}
	return out, nil
}

// rungResult is one offered rate of the open-loop ladder after it ran.
type rungResult struct {
	rate float64 // offered requests per second
	// achieved is completed requests per second of the rung's wall time,
	// from its first due time to its last completion.
	achieved float64
	p99      float64 // ms, from each request's due time
	failed   int
	// backlogMid and backlogEnd are the requests due but not yet
	// answered at the middle and at the end of the rung's schedule.
	backlogMid, backlogEnd int
	// scheduled is the number of requests the rung offered.
	scheduled int
}

// backlogGrowing reports whether the outstanding-request count grew
// over the second half of the rung by more than jitter can explain: at
// least twice the connection count and one percent of the offered
// requests.
func (r rungResult) backlogGrowing(conns int) bool {
	slack := 2 * conns
	if s := r.scheduled / 100; s > slack {
		slack = s
	}
	return r.backlogEnd-r.backlogMid > slack
}

// goodput returns the achieved rate of the highest-rate rung that met
// the p99 limit with no failures and no growing backlog, and that
// rung's index; -1 when no rung qualifies.
func goodput(rungs []rungResult, limitMs float64, conns int) (float64, int) {
	best := -1
	for i, r := range rungs {
		if r.failed > 0 || r.p99 > limitMs || r.backlogGrowing(conns) {
			continue
		}
		if best < 0 || r.rate > rungs[best].rate {
			best = i
		}
	}
	if best < 0 {
		return 0, -1
	}
	return rungs[best].achieved, best
}

// trimmedMean returns the mean of the lowest keep share of sorted
// (ascending) samples and how many that is (at least one).
func trimmedMean(sorted []float64, keep float64) (float64, int) {
	k := int(keep * float64(len(sorted)))
	if k < 1 {
		k = 1
	}
	return mean(sorted[:k]), k
}
