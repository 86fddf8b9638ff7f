package main

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func TestPoissonScheduleIsSeeded(t *testing.T) {
	a := poissonSchedule(42, 40, 10*time.Second)
	b := poissonSchedule(42, 40, 10*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two schedules")
	}
	if reflect.DeepEqual(a, poissonSchedule(43, 40, 10*time.Second)) {
		t.Fatal("different seeds gave the same schedule")
	}
	// 400 arrivals expected; a Poisson count stays within 5 sigma of it.
	if n := len(a); math.Abs(float64(n)-400) > 5*math.Sqrt(400) {
		t.Fatalf("%d arrivals at 40/s over 10 s", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= 10*time.Second {
			t.Fatalf("offset %d = %v out of order or past the end", i, a[i])
		}
	}
	if poissonSchedule(1, 0, time.Second) != nil || poissonSchedule(1, 10, 0) != nil {
		t.Fatal("an empty schedule expected for a zero rate or length")
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100..1, unsorted on purpose
	}
	v, pct, ok := tail(xs)
	if !ok || v != 90 || pct != 90 {
		t.Fatalf("tail of 1..100 = %v at p%v (ok %v), want 90 at p90", v, pct, ok)
	}
	v, pct, ok = tail(xs[:11]) // 100..90: one sample at or below, ten beyond
	if !ok || v != 90 || math.Abs(pct-100.0/11) > 1e-9 {
		t.Fatalf("tail of 11 samples = %v at p%v (ok %v), want 90", v, pct, ok)
	}
	if _, _, ok := tail(xs[:10]); ok {
		t.Fatal("ten samples cannot have ten beyond a percentile")
	}
}

func TestSelfTimesSubtractCoveredChildTime(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "client", Parent: -1, Start: 0, End: 20 * ms},
		{Name: "proxy", Parent: 0, Start: 1 * ms, End: 19 * ms},
		{Name: "api", Parent: 1, Start: 2 * ms, End: 18 * ms},
		{Name: "submit", Parent: 2, Start: 3 * ms, End: 4 * ms},
		{Name: "queue", Parent: 2, Start: 3500 * time.Microsecond, End: 6 * ms}, // overlaps submit
		{Name: "run", Parent: 2, Start: 6 * ms, End: 15 * ms},
		{Name: "late", Parent: 2, Start: 17 * ms, End: 25 * ms}, // runs past its parent
	}
	want := []time.Duration{2 * ms, 2 * ms, 3 * ms, 1 * ms, 2500 * time.Microsecond, 9 * ms, 8 * ms}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

func TestSelectMaxRateTakesHighestPassingRung(t *testing.T) {
	rungs := []rung{
		{Rate: 10, TailMs: 20},
		{Rate: 40, TailMs: 60},
		{Rate: 64, TailMs: 101},             // misses the limit
		{Rate: 72, TailMs: 90},              // passes above a miss
		{Rate: 80, TailMs: 95, Failures: 1}, // a refusal fails the rung
		{Rate: 88, TailMs: 70, Growing: true},
		{Rate: 96, TailMs: math.MaxFloat64},
	}
	if got := selectMaxRate(rungs, 100); got != 3 {
		t.Fatalf("selected rung %d, want 3 (72/s)", got)
	}
	var passed []bool
	for _, r := range rungs {
		passed = append(passed, r.Passed)
	}
	if want := []bool{true, true, false, true, false, false, false}; !reflect.DeepEqual(passed, want) {
		t.Fatalf("passed %v, want %v", passed, want)
	}
	if got := selectMaxRate([]rung{{Rate: 10, TailMs: 500}}, 100); got != -1 {
		t.Fatalf("selected %d from a ladder with no passing rung", got)
	}
}

func TestGrowingBacklog(t *testing.T) {
	flat := []int{1, 0, 2, 1, 1, 0, 2, 1, 1}
	rising := []int{1, 2, 3, 6, 9, 12, 15, 18, 21}
	if growing(flat, 64) {
		t.Fatal("a flat backlog flagged as growing")
	}
	if !growing(rising, 64) {
		t.Fatal("a rising backlog not flagged")
	}
}
