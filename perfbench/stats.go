package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// median returns the middle value of xs, the mean of the two middle values
// for an even count, and 0 for no values.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-th quantile (0 <= q <= 1) of xs, interpolating
// linearly between the closest ranks; 0 for no values. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// maxOf returns the largest of xs, 0 for no values.
func maxOf(xs []float64) float64 {
	m := 0.0
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

// busyFrac is the share of a sweep's worker capacity spent running jobs:
// the summed job time over wall time times the worker count. A value well
// below 1 means workers sat idle while the slowest jobs finished.
func busyFrac(jobSeconds []float64, wallSeconds float64, par int) float64 {
	if wallSeconds <= 0 || par <= 0 {
		return 0
	}
	sum := 0.0
	for _, s := range jobSeconds {
		sum += s
	}
	return sum / (wallSeconds * float64(par))
}

// completion is one job finish as the sweep's progress stream reports it:
// the job's key and the sweep time at which it finished.
type completion struct {
	key string
	at  time.Duration
}

// jobDurations infers each job's run time from the sweep's progress
// stream. The sweep hands jobs to par workers in dispatch order, and a
// worker takes its next job as soon as it reports a finish, so the first
// par jobs start at 0 and job par+k starts at the k-th finish. Every job in
// order must finish exactly once.
func jobDurations(order []string, done []completion, par int) ([]float64, error) {
	if par < 1 {
		return nil, fmt.Errorf("jobDurations: parallelism %d", par)
	}
	if len(done) != len(order) {
		return nil, fmt.Errorf("jobDurations: %d jobs dispatched, %d finished", len(order), len(done))
	}
	finish := make(map[string]time.Duration, len(done))
	for _, c := range done {
		if _, dup := finish[c.key]; dup {
			return nil, fmt.Errorf("jobDurations: job %s finished twice", c.key)
		}
		finish[c.key] = c.at
	}
	out := make([]float64, len(order))
	for k, key := range order {
		end, ok := finish[key]
		if !ok {
			return nil, fmt.Errorf("jobDurations: job %s never finished", key)
		}
		var start time.Duration
		if k >= par {
			start = done[k-par].at
		}
		out[k] = (end - start).Seconds()
	}
	return out, nil
}
