package main

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// poissonSchedule returns the send offsets of an open-loop Poisson arrival
// process at rate requests per second over dur: exponential gaps drawn from
// a generator seeded with seed, so one seed always yields one schedule.
func poissonSchedule(seed int64, rate float64, dur time.Duration) []time.Duration {
	if rate <= 0 || dur <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	var out []time.Duration
	t := 0.0
	limit := dur.Seconds()
	for {
		t += rng.ExpFloat64() / rate
		if t >= limit {
			return out
		}
		out = append(out, time.Duration(t*float64(time.Second)))
	}
}

// tailBeyond is how many samples must lie above a reported tail percentile.
const tailBeyond = 10

// tail applies the benchmark's tail rule to a sample: the highest
// percentile that still has at least tailBeyond samples above it. It
// returns that sample's value, the percentile it sits at (share of the
// sample at or below it, in percent) and false when the sample is too
// small to have such a percentile.
func tail(xs []float64) (value, pct float64, ok bool) {
	n := len(xs)
	if n <= tailBeyond {
		return 0, 0, false
	}
	s := sortedCopy(xs)
	i := n - 1 - tailBeyond
	return s[i], 100 * float64(i+1) / float64(n), true
}

// median returns the middle value (mean of the two middle values for an
// even count), or 0 for an empty sample.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// rung is one step of the serving capacity ladder: one open-loop phase at
// a fixed offered rate.
type rung struct {
	Label    string  `json:"label"`
	Rate     float64 `json:"rate"`     // offered requests per second
	Offered  int     `json:"offered"`  // requests scheduled
	Failures int     `json:"failures"` // refused, errored or wrong answers
	P50Ms    float64 `json:"p50_ms"`
	TailMs   float64 `json:"tail_ms"`  // by the tail rule; MaxFloat64 when too few samples
	TailPct  float64 `json:"tail_pct"` // the percentile TailMs sits at
	Growing  bool    `json:"growing"`  // the backlog grew across the rung
	Passed   bool    `json:"passed"`   // set by selectMaxRate
}

// meets reports whether a rung satisfies all three capacity conditions:
// tail latency within the limit, no failures, and no growing backlog.
func (r rung) meets(limitMs float64) bool {
	return r.TailMs <= limitMs && r.Failures == 0 && !r.Growing
}

// selectMaxRate marks the rungs that meet the capacity conditions and
// returns the index of the one with the highest rate, or -1 when none
// does.
func selectMaxRate(rungs []rung, limitMs float64) int {
	best := -1
	for i := range rungs {
		rungs[i].Passed = rungs[i].meets(limitMs)
		if rungs[i].Passed && (best < 0 || rungs[i].Rate > rungs[best].Rate) {
			best = i
		}
	}
	return best
}

// span is one timed interval of the traced run. Parent is the index of the
// enclosing span in the same slice, -1 for a root.
type span struct {
	Name   string
	Parent int
	Start  time.Duration
	End    time.Duration
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover. Overlapping children count once, and child time
// outside the parent's interval is ignored.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ a, b time.Duration }
		var ivs []iv
		for _, c := range children[i] {
			a, b := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered time.Duration
		var curA, curB time.Duration
		open := false
		for _, v := range ivs {
			switch {
			case !open:
				curA, curB, open = v.a, v.b, true
			case v.a <= curB:
				curB = max(curB, v.b)
			default:
				covered += curB - curA
				curA, curB = v.a, v.b
			}
		}
		if open {
			covered += curB - curA
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}
