package telemetry_test

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/fleet"
	"repro/internal/station"
	"repro/internal/telemetry"
)

// FuzzParseText fuzzes the parser behind every /metricsz gate. Arbitrary
// text must never panic it. And for an arbitrary label value, a registry
// rendered alone (WritePrometheus) or as two shard-labeled groups
// (WriteAll) must parse back with exactly one sample per rendered series.
// The seed corpus holds a real single-station and a real 2-shard fleet
// exposition.
func FuzzParseText(f *testing.F) {
	f.Add(stationExposition(f), "0")
	f.Add(fleetExposition(f), "a\"b\\c\nd")
	f.Add("agg_x{k=\"v\"} 1\n# HELP agg_y y\nagg_y 2e-3\n", " \t}{=,")
	f.Fuzz(func(t *testing.T, text, label string) {
		if samples, err := telemetry.ParseText(strings.NewReader(text)); err == nil {
			for key := range samples {
				if key == "" || key[0] == '{' {
					t.Fatalf("ParseText accepted a sample without a name: %q", key)
				}
			}
		}
		// ParseText reads lines of up to 1 MiB; escaping may double a value.
		if len(label) > 1<<16 {
			t.Skip("label value beyond the exposition line bound")
		}
		reg := telemetry.NewRegistry()
		reg.Counter("agg_fuzz_total", "counter", "v", label).Add(3)
		reg.Counter("agg_fuzz_total", "counter", "v", label+"x").Add(4)
		reg.Gauge("agg_fuzz_gauge", "gauge", "v", label).Set(-2)
		reg.CounterFunc("agg_fuzz_func_total", "func", func() float64 { return 1.5 }, "v", label)
		reg.Histogram("agg_fuzz_seconds", "histogram", "v", label).Observe(3 * time.Millisecond)
		// Four one-line series plus the histogram's buckets, +Inf, _sum, _count.
		perGroup := 4 + telemetry.ExposeBuckets + 3

		var single, merged bytes.Buffer
		if err := reg.WritePrometheus(&single); err != nil {
			t.Fatal(err)
		}
		if err := telemetry.WriteAll(&merged,
			telemetry.Labeled{Registry: reg, Labels: []string{"shard", label}},
			telemetry.Labeled{Registry: reg, Labels: []string{"shard", label + "y"}},
		); err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			text   string
			groups int
		}{{single.String(), 1}, {merged.String(), 2}} {
			samples, err := telemetry.ParseText(strings.NewReader(tc.text))
			if err != nil {
				t.Fatalf("own output does not parse: %v\n%s", err, tc.text)
			}
			if len(samples) != perGroup*tc.groups {
				t.Fatalf("parsed %d samples, want %d\n%s", len(samples), perGroup*tc.groups, tc.text)
			}
			var counted float64
			for key, v := range samples {
				if strings.HasPrefix(key, "agg_fuzz_total{") {
					counted += v
				}
			}
			if counted != 7*float64(tc.groups) {
				t.Fatalf("agg_fuzz_total sums to %v, want %v\n%s", counted, 7*tc.groups, tc.text)
			}
		}
	})
}

// stationExposition serves one query on a small station with trace
// counters on and returns its /metricsz body.
func stationExposition(f *testing.F) string {
	cfg := station.Config{Workers: 1, TraceStats: true,
		Deploy: repro.Options{Nodes: 80, Seed: 7, Ideal: true}}
	st, err := station.New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	defer drain(f, st)
	job, err := st.Submit(station.QuerySpec{Kind: repro.QuerySum})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := job.Wait(context.Background()); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := st.WriteMetrics(&buf); err != nil {
		f.Fatal(err)
	}
	return buf.String()
}

// fleetExposition fans one query out over a 2-shard fleet and returns the
// shard-labeled /metricsz body.
func fleetExposition(f *testing.F) string {
	fl, err := fleet.New(fleet.Config{Shards: 2, Station: station.Config{Workers: 1,
		Deploy: repro.Options{Nodes: 80, Seed: 7, Ideal: true}}})
	if err != nil {
		f.Fatal(err)
	}
	defer drain(f, fl)
	jobs, _, err := fl.SubmitAll(station.QuerySpec{Kind: repro.QuerySum}, false)
	if err != nil {
		f.Fatal(err)
	}
	for _, job := range jobs {
		if _, err := job.Wait(context.Background()); err != nil {
			f.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := fl.WriteMetrics(&buf); err != nil {
		f.Fatal(err)
	}
	return buf.String()
}

func drain(f *testing.F, d interface{ Drain(context.Context) error }) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.Drain(ctx); err != nil {
		f.Fatal(err)
	}
}
