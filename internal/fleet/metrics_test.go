package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/station"
	"repro/internal/telemetry"
)

// TestProxyHedgesSlowTarget is the hedging regression gate: with the
// p99 now read from the shared per-target histogram instead of the old
// private sample ring, a GET to a target that suddenly stalls must still
// fire a hedge after the learned delay and win with the fast second
// attempt.
func TestProxyHedgesSlowTarget(t *testing.T) {
	const stall = 750 * time.Millisecond
	var calls atomic.Int64
	slowFirst := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(stall) // only the first in-flight GET stalls
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"id":"s0-job-1","state":"done"}`)
	}))
	defer slowFirst.Close()

	p, err := NewProxyWith([]string{slowFirst.URL}, ProxyOptions{Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}

	// Before the histogram has enough samples, the derived delay must be
	// zero: hedging on thin data hedges everything.
	if d := p.hedgeDelay(0); d != 0 {
		t.Fatalf("hedgeDelay with empty histogram = %v, want 0", d)
	}

	// Teach the target's latency instruments a fast baseline, as a warm
	// proxy would have learned from real traffic.
	for i := 0; i < hedgeMinSamples; i++ {
		p.metrics.observeLatency(0, 10*time.Millisecond)
	}
	if d := p.hedgeDelay(0); d <= 0 || d > 100*time.Millisecond {
		t.Fatalf("hedgeDelay after warm-up = %v, want a small p99-derived delay", d)
	}

	start := time.Now()
	resp, err := p.get(0, "rid-hedge", "/v1/jobs/s0-job-1")
	took := time.Since(start)
	if err != nil || resp.status != http.StatusOK {
		t.Fatalf("hedged get: %v status=%v", err, resp)
	}
	if took >= stall {
		t.Fatalf("hedged get took %v, want well under the %v stall", took, stall)
	}
	if n := p.metrics.hedges[0].Value(); n != 1 {
		t.Errorf("hedges counter = %d, want 1", n)
	}
	if n := p.metrics.attempts[0].Value(); n < 2 {
		t.Errorf("attempts counter = %d, want both racing attempts counted", n)
	}
}

// TestHedgeDelayTracksRegimeChange pins the rolling-window property: a
// long fast history must not anchor the hedge delay. After the window
// fills with slow samples the delay follows the new regime, even though
// the slow samples are a tiny fraction of the lifetime total — the
// failure mode a cumulative p99 has (hedging every GET against a target
// that turned slow) and the one the old 64-sample ring never did.
func TestHedgeDelayTracksRegimeChange(t *testing.T) {
	p, err := NewProxyWith([]string{"http://127.0.0.1:1"}, ProxyOptions{Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	// Simulate long uptime: tens of thousands of fast exchanges.
	for i := 0; i < 50_000; i++ {
		p.metrics.observeLatency(0, 10*time.Millisecond)
	}
	if d := p.hedgeDelay(0); d > 100*time.Millisecond {
		t.Fatalf("hedgeDelay over fast history = %v, want fast", d)
	}
	// The target turns slow. Two window rotations of slow samples (<1% of
	// the lifetime count) must drag the hedge delay up to the new regime.
	for i := 0; i < 2*hedgeWindow; i++ {
		p.metrics.observeLatency(0, 500*time.Millisecond)
	}
	if d := p.hedgeDelay(0); d < 400*time.Millisecond {
		t.Fatalf("hedgeDelay after regime change = %v, want ~500ms: the window "+
			"must forget the fast history", d)
	}
	// The cumulative exposition histogram keeps the lifetime view.
	if got := p.metrics.lat[0].Count(); got != 50_000+2*hedgeWindow {
		t.Fatalf("cumulative histogram count = %d, want all samples", got)
	}
}

// TestProxyMetricsExposition scrapes the proxy's /metricsz after real
// traffic and checks the exposition parses with the per-target series a
// dashboard keys on — and that the correlation id assigned at the proxy
// comes back on both the response header and the job status.
func TestProxyMetricsExposition(t *testing.T) {
	rig := newProxyRig(t)

	resp, err := http.Post(rig.proxy.URL+"/v1/query", "application/json",
		strings.NewReader(`{"kind":"sum"}`))
	if err != nil {
		t.Fatal(err)
	}
	rid := resp.Header.Get(station.RequestIDHeader)
	var js station.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&js); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rid == "" {
		t.Fatal("proxy response carries no X-Agg-Request-Id")
	}
	if js.RequestID != rid {
		t.Errorf("job status request_id %q != response header id %q", js.RequestID, rid)
	}

	samples := scrape(t, rig.proxy.URL)
	attempts := samples[`agg_proxy_attempts_total{target="0"}`] +
		samples[`agg_proxy_attempts_total{target="1"}`]
	if attempts < 1 {
		t.Errorf("no per-target attempts recorded: %v", samples)
	}
	for _, target := range []string{"0", "1"} {
		key := fmt.Sprintf(`agg_proxy_breaker_state{target=%q,state="closed"}`, target)
		if samples[key] != 1 {
			t.Errorf("%s = %v, want 1 (healthy targets stay closed)", key, samples[key])
		}
	}
	if samples["agg_proxy_availability_ratio"] != 1 {
		t.Errorf("availability = %v after all-success traffic, want 1",
			samples["agg_proxy_availability_ratio"])
	}
}

// TestFleetMetricsShardLabels drives a fleet with flight-recorder counters
// on, renders WriteMetrics, and checks that each shard's station registry
// appears under its own shard="i" label: job outcomes matching the jobs
// the test saw finish, per-worker rounds and traffic, and the trace
// counters, next to the coordinator's own series.
func TestFleetMetricsShardLabels(t *testing.T) {
	cfg := testConfig(2, 1, 8)
	cfg.Station.TraceStats = true
	f := newFleet(t, cfg)

	jobs, missing, err := f.SubmitAll(station.QuerySpec{Kind: repro.QuerySum}, false)
	if err != nil || len(missing) != 0 {
		t.Fatalf("SubmitAll: %v missing=%v", err, missing)
	}
	for _, j := range jobs {
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	samples := fleetSamples(t, f)
	for shard := 0; shard < 2; shard++ {
		for key, want := range map[string]float64{
			`agg_station_jobs_total{shard="%d",kind="sum",outcome="done"}`: 1,
			`agg_fleet_shard_state{shard="%d",state="healthy"}`:            1,
			`agg_station_worker_rounds_total{shard="%d",worker="0"}`:       1,
		} {
			if key = fmt.Sprintf(key, shard); samples[key] != want {
				t.Errorf("%s = %v, want %v", key, samples[key], want)
			}
		}
		for _, key := range []string{
			`agg_station_worker_traffic_total{shard="%d",worker="0",field="tx_bytes"}`,
			`agg_trace_events_total{shard="%d",type="lifecycle"}`,
			`agg_trace_phase_events_total{shard="%d",phase="exchange"}`,
			`agg_trace_round{shard="%d"}`,
			`agg_trace_sim_time_ns{shard="%d"}`,
		} {
			if key = fmt.Sprintf(key, shard); samples[key] <= 0 {
				t.Errorf("%s = %v, want > 0", key, samples[key])
			}
		}
	}
	if done := sumSeries(samples, "agg_station_jobs_total", `outcome="done"`); done != float64(len(jobs)) {
		t.Errorf("metrics count %v done jobs, the fan-out finished %d", done, len(jobs))
	}
	stats := f.Stats()
	for key, want := range map[string]int64{
		"agg_fleet_shed_total":     stats.Shed,
		"agg_fleet_rejected_total": stats.Rejected,
		"agg_fleet_restarts_total": stats.Restarts,
		"agg_fleet_degraded_total": stats.Degraded,
	} {
		if got, ok := samples[key]; !ok || got != float64(want) {
			t.Errorf("%s = %v (present %v), Stats() says %d", key, got, ok, want)
		}
	}
	if got, ok := samples["agg_fleet_draining"]; !ok || got != 0 {
		t.Errorf("agg_fleet_draining = %v (present %v), want 0 while serving", got, ok)
	}
	if samples["agg_fleet_availability_ratio"] != 1 {
		t.Errorf("fleet availability = %v, want 1", samples["agg_fleet_availability_ratio"])
	}
}

// fleetSamples renders the fleet's /metricsz body and parses it.
func fleetSamples(t *testing.T, f *Fleet) map[string]float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := f.WriteMetrics(&buf); err != nil {
		t.Fatalf("WriteMetrics: %v", err)
	}
	samples, err := telemetry.ParseText(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("fleet exposition does not parse: %v\n%s", err, buf.String())
	}
	return samples
}

// scrape GETs base+"/metricsz" and parses the exposition.
func scrape(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != telemetry.ContentType {
		t.Errorf("metricsz content type = %q", ct)
	}
	samples, err := telemetry.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("exposition at %s does not parse: %v", base, err)
	}
	return samples
}

// sumSeries sums the samples of family name whose labels contain every
// fragment, e.g. `outcome="done"`.
func sumSeries(samples map[string]float64, name string, fragments ...string) float64 {
	var total float64
	for key, v := range samples {
		if key != name && !strings.HasPrefix(key, name+"{") {
			continue
		}
		match := true
		for _, fr := range fragments {
			match = match && strings.Contains(key, fr)
		}
		if match {
			total += v
		}
	}
	return total
}
