package station

import (
	"io"
	"strconv"

	"repro"
	"repro/internal/telemetry"
)

// Serving-path metrics. The registry is built once in New and instrument
// handles are resolved up front, so the per-job cost is a histogram
// Observe plus one counter Add — both allocation-free. Counters that
// already exist as station atomics (admission, protocol outcomes) or as
// worker accounting (rounds, radio traffic) are mirrored via
// CounterFunc/GaugeFunc closures read at exposition time, so the serving
// path keeps single bookkeeping. With Config.TraceStats the workers'
// flight-recorder counters (agg_trace_*) land in the same registry.

// jobOutcome indexes the per-kind outcome counters.
const (
	outcomeDone = iota
	outcomeFailed
	outcomeCanceled
	outcomeCount
)

var outcomeNames = [outcomeCount]string{"done", "failed", "canceled"}

// metrics is the station's instrument set.
type metrics struct {
	reg       *telemetry.Registry
	queueWait *telemetry.Histogram // admission → worker pickup
	run       *telemetry.Histogram // worker pickup → finish
	// jobs[kind][outcome], kind indexed by repro.QueryKind (1-based).
	jobs [int(repro.QueryMax) + 1][outcomeCount]*telemetry.Counter
}

// newMetrics builds the station registry and wires the mirror closures
// onto the station's existing atomics.
func (s *Station) newMetrics() *metrics {
	reg := telemetry.NewRegistry()
	m := &metrics{
		reg: reg,
		queueWait: reg.Histogram("agg_station_queue_wait_seconds",
			"Time jobs spend queued between admission and worker pickup."),
		run: reg.Histogram("agg_station_run_seconds",
			"Worker execution time per job (Reset + RunQuery)."),
	}
	for k := repro.QuerySum; k <= repro.QueryMax; k++ {
		for o := 0; o < outcomeCount; o++ {
			m.jobs[int(k)][o] = reg.Counter("agg_station_jobs_total",
				"Finished jobs by query kind and outcome.",
				"kind", k.String(), "outcome", outcomeNames[o])
		}
	}

	mirror := func(a interface{ Load() int64 }) func() float64 {
		return func() float64 { return float64(a.Load()) }
	}
	reg.CounterFunc("agg_station_submitted_total",
		"Admission verdicts.", mirror(&s.accepted), "result", "accepted")
	reg.CounterFunc("agg_station_submitted_total",
		"Admission verdicts.", mirror(&s.rejected), "result", "rejected")
	reg.CounterFunc("agg_station_protocol_total",
		"Protocol outcomes accumulated over completed answers.",
		mirror(&s.alarms), "event", "alarm")
	reg.CounterFunc("agg_station_protocol_total",
		"Protocol outcomes accumulated over completed answers.",
		mirror(&s.integrityRejected), "event", "integrity_rejected")
	reg.CounterFunc("agg_station_protocol_total",
		"Protocol outcomes accumulated over completed answers.",
		mirror(&s.degradedClusters), "event", "degraded_cluster")
	reg.CounterFunc("agg_station_protocol_total",
		"Protocol outcomes accumulated over completed answers.",
		mirror(&s.failedClstrs), "event", "failed_cluster")
	reg.CounterFunc("agg_station_protocol_total",
		"Protocol outcomes accumulated over completed answers.",
		mirror(&s.takeovers), "event", "takeover")
	reg.CounterFunc("agg_station_protocol_total",
		"Protocol outcomes accumulated over completed answers.",
		mirror(&s.promotions), "event", "promotion")

	reg.GaugeFunc("agg_station_queue_depth",
		"Jobs waiting in the admission queue.",
		func() float64 { return float64(len(s.queue)) })
	reg.GaugeFunc("agg_station_queue_capacity",
		"Admission queue capacity.",
		func() float64 { return float64(cap(s.queue)) })
	reg.GaugeFunc("agg_station_workers",
		"Deployment pool size.",
		func() float64 { return float64(len(s.workers)) })
	reg.GaugeFunc("agg_station_draining",
		"1 while the station is draining, else 0.",
		func() float64 {
			if s.Draining() {
				return 1
			}
			return 0
		})
	return m
}

// trafficFields names one agg_station_worker_traffic_total series per
// repro.Traffic field, labeled with the field's JSON name.
var trafficFields = []struct {
	name string
	get  func(repro.Traffic) int
}{
	{"tx_bytes", func(t repro.Traffic) int { return t.TxBytes }},
	{"rx_bytes", func(t repro.Traffic) int { return t.RxBytes }},
	{"tx_messages", func(t repro.Traffic) int { return t.TxMessages }},
	{"rx_messages", func(t repro.Traffic) int { return t.RxMessages }},
	{"app_messages", func(t repro.Traffic) int { return t.AppMessages }},
	{"collisions", func(t repro.Traffic) int { return t.Collisions }},
	{"dropped", func(t repro.Traffic) int { return t.Dropped }},
}

// addWorker mirrors one pool slot's rounds and radio traffic; the worker's
// lock is taken at exposition time only, never on the job path.
func (m *metrics) addWorker(w *worker) {
	id := strconv.Itoa(w.id)
	m.reg.CounterFunc("agg_station_worker_rounds_total",
		"Epochs each pool worker has run.",
		func() float64 { return float64(w.status().Rounds) }, "worker", id)
	for _, f := range trafficFields {
		m.reg.CounterFunc("agg_station_worker_traffic_total",
			"Radio traffic carried by each pool worker's deployment, by repro.Traffic field.",
			func() float64 { return float64(f.get(w.status().Traffic)) },
			"worker", id, "field", f.name)
	}
}

// finished records one terminal job into the per-kind outcome counters.
func (m *metrics) finished(kind repro.QueryKind, state JobState) {
	if kind < repro.QuerySum || kind > repro.QueryMax {
		return
	}
	switch state {
	case JobDone:
		m.jobs[int(kind)][outcomeDone].Inc()
	case JobFailed:
		m.jobs[int(kind)][outcomeFailed].Inc()
	case JobCanceled:
		m.jobs[int(kind)][outcomeCanceled].Inc()
	}
}

// MetricsRegistry exposes the station's registry — the fleet coordinator
// merges shard registries under per-shard labels, and tests assert on it
// directly.
func (s *Station) MetricsRegistry() *telemetry.Registry { return s.metrics.reg }

// WriteMetrics renders the station's metrics as Prometheus text — the
// /metricsz body for a single-station deployment.
func (s *Station) WriteMetrics(w io.Writer) error {
	return s.metrics.reg.WritePrometheus(w)
}
