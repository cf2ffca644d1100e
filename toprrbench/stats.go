package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// samples collects one op kind's latencies.
type samples []time.Duration

// quantile returns the nearest-rank q-quantile and whether at least
// minBeyond samples lie strictly above its rank, the rule for reporting
// a tail percentile.
func (s samples) quantile(q float64, minBeyond int) (time.Duration, bool) {
	if len(s) == 0 {
		return 0, false
	}
	sorted := append(samples(nil), s...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank], len(sorted)-1-rank >= minBeyond
}

// medianDur is the median of a set of durations (mean of the middle two
// for even counts).
func medianDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the run's output: the header lines printed first, then the
// metrics in the final JSON line.
type report struct {
	header  []string
	metrics map[string]metric
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) put(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) note(format string, args ...any) {
	r.header = append(r.header, fmt.Sprintf(format, args...))
}

// percentile reports a tail percentile of a sample set, or an error
// when fewer than ten samples lie beyond it.
func (r *report) percentile(name string, s samples, q float64, scale func(time.Duration) float64, unit string) error {
	v, ok := s.quantile(q, 10)
	if !ok {
		return fmt.Errorf("%s: %d samples leave fewer than 10 beyond the %.0fth percentile", name, len(s), 100*q)
	}
	r.put(name, scale(v), unit)
	r.note("samples %s: %d", name, len(s))
	return nil
}
