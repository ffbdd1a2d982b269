package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestMedianAndQuantile(t *testing.T) {
	cases := []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{nil, 0.5, 0},
		{[]float64{4}, 0.5, 4},
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{4, 1, 3, 2}, 0, 1},
		{[]float64{4, 1, 3, 2}, 1, 4},
		{[]float64{1, 2, 3, 4, 5}, 0.25, 2},
		{[]float64{10, 20}, 0.25, 12.5},
	}
	for _, c := range cases {
		if got := quantile(c.xs, c.q); !near(got, c.want) {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
	xs := []float64{5, 1, 4}
	if got := median(xs); got != 4 {
		t.Errorf("median(%v) = %v, want 4", xs, got)
	}
	if xs[0] != 5 || xs[1] != 1 {
		t.Errorf("median reordered its input: %v", xs)
	}
	if got := maxOf([]float64{-3, -1, -2}); got != -1 {
		t.Errorf("maxOf = %v, want -1", got)
	}
}

func TestBusyFrac(t *testing.T) {
	// Two workers over 10 s: 15 s of jobs leaves a quarter of the
	// capacity idle.
	if got := busyFrac([]float64{5, 4, 6}, 10, 2); !near(got, 0.75) {
		t.Errorf("busyFrac = %v, want 0.75", got)
	}
	if got := busyFrac([]float64{1}, 0, 2); got != 0 {
		t.Errorf("busyFrac with no wall time = %v, want 0", got)
	}
}

func TestJobDurations(t *testing.T) {
	s := func(x float64) time.Duration { return time.Duration(x * float64(time.Second)) }
	// Two workers. a and b start at 0; c takes b's worker when b finishes
	// at 1; d takes a's when a finishes at 3.
	order := []string{"a", "b", "c", "d"}
	done := []completion{{"b", s(1)}, {"a", s(3)}, {"c", s(3.5)}, {"d", s(4)}}
	got, err := jobDurations(order, done, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 1, 2.5, 1}
	for i := range want {
		if !near(got[i], want[i]) {
			t.Errorf("job %s: %v s, want %v s", order[i], got[i], want[i])
		}
	}
	// One worker runs the jobs back to back.
	got, err = jobDurations([]string{"a", "b"}, []completion{{"a", s(2)}, {"b", s(5)}}, 1)
	if err != nil || !near(got[0], 2) || !near(got[1], 3) {
		t.Errorf("serial durations = %v, %v; want [2 3]", got, err)
	}

	for _, c := range []struct {
		name string
		done []completion
		want string
	}{
		{"missing", []completion{{"a", s(1)}, {"b", s(2)}, {"c", s(3)}}, "dispatched"},
		{"duplicate", []completion{{"a", s(1)}, {"a", s(2)}, {"c", s(3)}, {"d", s(4)}}, "twice"},
		{"unknown", []completion{{"a", s(1)}, {"b", s(2)}, {"c", s(3)}, {"x", s(4)}}, "never finished"},
	} {
		if _, err := jobDurations(order, c.done, 2); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", c.name, err, c.want)
		}
	}
}
