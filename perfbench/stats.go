package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is the percentile rule: a percentile is reported only when at
// least this many samples lie beyond it, so a p99 needs 1000 samples and a
// median 20.
const minBeyond = 10

// pct returns the q-quantile (0 < q < 1) of xs by the nearest-rank rule. It
// refuses, with an error, when fewer than minBeyond samples lie beyond it.
// A failed operation enters xs as +Inf: it misses any latency limit.
func pct(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if beyond := math.Round(float64(n)*(1-q)*1e9) / 1e9; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %.4g beyond it, need %d", q*100, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank], nil
}

// median returns the median of xs, or 0 for no samples (used for per-layer
// figures whose sample count is printed beside them).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// timing is one operation as the load generator saw it, as offsets from the
// start of the run. In a closed loop Due is when the caller became ready, in
// an open loop when the request was scheduled to be sent.
type timing struct {
	Due, Start, End time.Duration
	Failed          bool
}

// Latency is measured from the due time, so time a request spent waiting for
// a free sender counts against it.
func (t timing) Latency() time.Duration { return t.End - t.Due }

// Late is how long after its due time the generator began sending.
func (t timing) Late() time.Duration { return t.Start - t.Due }

// latenciesMs returns every latency in milliseconds; failed operations are
// +Inf.
func latenciesMs(ts []timing) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = ms(t.Latency())
		if t.Failed {
			out[i] = math.Inf(1)
		}
	}
	return out
}

func latesMs(ts []timing) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = ms(t.Late())
	}
	return out
}

func countFailed(ts []timing) int {
	n := 0
	for _, t := range ts {
		if t.Failed {
			n++
		}
	}
	return n
}
