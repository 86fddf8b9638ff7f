package station

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/benchio"
	"repro/internal/telemetry"
)

// LoadConfig drives a closed-loop burst against a running aggd: Concurrency
// clients each issue the next request the moment the previous one answers,
// cycling through Kinds, until Requests have completed (or Duration
// elapses). 503 backpressure responses are retried after the server's
// retry_after_ms hint and counted separately from errors — shedding load
// under pressure is the contract, not a failure.
type LoadConfig struct {
	BaseURL     string // e.g. http://127.0.0.1:8080
	Concurrency int    // parallel clients (default 8)
	Requests    int    // total completed requests to drive (default 100 when Duration unset)
	Duration    time.Duration
	Kinds       []repro.QueryKind // cycled per request; default: all seven
	Timeout     time.Duration     // per-attempt HTTP timeout (default 30s)

	// VerifyAnswers, when non-nil, maps kind name → the offline reference
	// answer; every served answer is compared against it and a mismatch
	// counts as both an error and a wrong answer. The chaos harness uses
	// this to prove a fleet under fault injection never serves a wrong
	// answer, only unavailability.
	VerifyAnswers map[string]repro.QueryAnswer
}

// LoadReport is the burst's outcome.
type LoadReport struct {
	Requests   int64            `json:"requests"`
	Errors     int64            `json:"errors"`
	Retries    int64            `json:"retries"`           // 503 backpressure retries
	Transport  int64            `json:"transport_retries"` // dial/reset retries
	Wrong      int64            `json:"wrong_answers"`     // served answers differing from the reference
	Elapsed    time.Duration    `json:"elapsed_ns"`
	Throughput float64          `json:"throughput_rps"`
	Mean       time.Duration    `json:"mean_ns"`
	P50        time.Duration    `json:"p50_ns"`
	P95        time.Duration    `json:"p95_ns"`
	P99        time.Duration    `json:"p99_ns"`
	Max        time.Duration    `json:"max_ns"`
	ByKind     map[string]int64 `json:"by_kind"`
	ErrSamples []string         `json:"error_samples,omitempty"`
}

// String renders the human summary.
func (r LoadReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "requests: %d  errors: %d  retries: %d (+%d transport)  elapsed: %v\n",
		r.Requests, r.Errors, r.Retries, r.Transport, r.Elapsed.Round(time.Millisecond))
	if r.Wrong > 0 {
		fmt.Fprintf(&b, "WRONG ANSWERS: %d\n", r.Wrong)
	}
	fmt.Fprintf(&b, "throughput: %.1f req/s\n", r.Throughput)
	fmt.Fprintf(&b, "latency: mean %v  p50 %v  p95 %v  p99 %v  max %v",
		r.Mean.Round(time.Microsecond), r.P50.Round(time.Microsecond),
		r.P95.Round(time.Microsecond), r.P99.Round(time.Microsecond),
		r.Max.Round(time.Microsecond))
	kinds := make([]string, 0, len(r.ByKind))
	for k := range r.ByKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(&b, "\n  %-9s %d", k, r.ByKind[k])
	}
	return b.String()
}

// Snapshot renders the report as a benchio snapshot, so serving
// performance joins the benchtrend regression story: latencies are ns/op
// under BenchmarkServeLatency/*, and BenchmarkServeThroughput encodes
// wall-clock ns per completed request (1e9 / req/s).
func (r LoadReport) Snapshot(date, goVersion, host string) benchio.Snapshot {
	ns := func(d time.Duration) float64 { return float64(d.Nanoseconds()) }
	perReq := 0.0
	if r.Requests > 0 {
		perReq = float64(r.Elapsed.Nanoseconds()) / float64(r.Requests)
	}
	return benchio.Snapshot{
		Date:      date,
		GoVersion: goVersion,
		Host:      host,
		Benchmarks: map[string]benchio.Metrics{
			"BenchmarkServeLatency/mean": {NsPerOp: ns(r.Mean)},
			"BenchmarkServeLatency/p50":  {NsPerOp: ns(r.P50)},
			"BenchmarkServeLatency/p95":  {NsPerOp: ns(r.P95)},
			"BenchmarkServeLatency/p99":  {NsPerOp: ns(r.P99)},
			"BenchmarkServeThroughput":   {NsPerOp: perReq},
		},
	}
}

// AllQueryKinds is the default mixed workload.
func AllQueryKinds() []repro.QueryKind {
	return []repro.QueryKind{
		repro.QuerySum, repro.QueryCount, repro.QueryAverage,
		repro.QueryVariance, repro.QueryStdDev, repro.QueryMin, repro.QueryMax,
	}
}

// RunLoad executes the closed-loop burst and reports throughput and
// latency percentiles. Latency is measured on the successful attempt only;
// backpressure backoff time is excluded from percentiles but included in
// Elapsed (and therefore in throughput).
func RunLoad(ctx context.Context, cfg LoadConfig) (LoadReport, error) {
	if cfg.BaseURL == "" {
		return LoadReport{}, fmt.Errorf("station: load: BaseURL required")
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 8
	}
	if cfg.Requests <= 0 && cfg.Duration <= 0 {
		cfg.Requests = 100
	}
	if len(cfg.Kinds) == 0 {
		cfg.Kinds = AllQueryKinds()
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	if cfg.Duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Duration)
		defer cancel()
	}
	client := &http.Client{Timeout: cfg.Timeout}

	var (
		next       atomic.Int64
		errorsN    atomic.Int64
		retriesN   atomic.Int64
		transportN atomic.Int64
		wrongN     atomic.Int64
		mu         sync.Mutex
		byKind     = make(map[string]int64)
		errSamples []string
	)
	// Latencies go straight into the shared serving histogram — the same
	// log-linear buckets /metricsz exposes — so aggload's percentiles and
	// the dashboards read from one definition of p99.
	hist := telemetry.NewHistogram()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < cfg.Concurrency; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			localKinds := make(map[string]int64)
			for {
				n := next.Add(1) - 1
				if cfg.Requests > 0 && n >= int64(cfg.Requests) {
					break
				}
				if ctx.Err() != nil {
					break
				}
				kind := cfg.Kinds[n%int64(len(cfg.Kinds))]
				lat, retries, transport, err := loadOne(ctx, client, cfg, kind)
				retriesN.Add(retries)
				transportN.Add(transport)
				if err != nil {
					if ctx.Err() != nil { // deadline hit mid-request, not a service error
						break
					}
					errorsN.Add(1)
					if errors.Is(err, ErrWrongAnswer) {
						wrongN.Add(1)
					}
					mu.Lock()
					if len(errSamples) < 5 {
						errSamples = append(errSamples, err.Error())
					}
					mu.Unlock()
					continue
				}
				hist.Observe(lat)
				localKinds[kind.String()]++
			}
			mu.Lock()
			for k, v := range localKinds {
				byKind[k] += v
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := LoadReport{
		Requests:   hist.Count(),
		Errors:     errorsN.Load(),
		Retries:    retriesN.Load(),
		Transport:  transportN.Load(),
		Wrong:      wrongN.Load(),
		Elapsed:    elapsed,
		ByKind:     byKind,
		ErrSamples: errSamples,
	}
	if rep.Requests > 0 && elapsed > 0 {
		rep.Throughput = float64(rep.Requests) / elapsed.Seconds()
	}
	if rep.Requests > 0 {
		rep.Mean = hist.Mean()
		rep.P50 = hist.Quantile(0.50)
		rep.P95 = hist.Quantile(0.95)
		rep.P99 = hist.Quantile(0.99)
		rep.Max = hist.Max()
	}
	return rep, nil
}

// ErrWrongAnswer marks a served answer that differed from the offline
// reference (LoadConfig.VerifyAnswers) — the one failure chaos runs must
// never see: a faulted fleet may refuse, it must not lie.
var ErrWrongAnswer = errors.New("load: served answer differs from reference")

// transportError marks a dial/reset-level failure: the server never
// answered (or the connection died mid-exchange), so the request is safe
// to retry — a restarting shard looks exactly like this from outside and
// must not poison a run's error count.
type transportError struct{ err error }

func (e *transportError) Error() string { return e.err.Error() }
func (e *transportError) Unwrap() error { return e.err }

// transportBackoff caps the dial-retry backoff; it starts at a sixteenth
// and doubles per attempt, so a shard restart measured in hundreds of ms is
// ridden out in a handful of retries. maxRetries bounds the 503 and
// transport retries of one request.
const (
	transportBackoff = 500 * time.Millisecond
	maxRetries       = 16
)

// loadOne issues one sync query, honoring 503 backpressure with the
// server's retry_after_ms hint and retrying transport-level failures
// with capped exponential backoff.
func loadOne(ctx context.Context, client *http.Client, cfg LoadConfig, kind repro.QueryKind) (time.Duration, int64, int64, error) {
	body, err := json.Marshal(queryRequest{Kind: kind.String()})
	if err != nil {
		return 0, 0, 0, err
	}
	var retries, transport int64
	tb := transportBackoff / 16
	for attempt := 0; ; attempt++ {
		lat, backoff, err := loadAttempt(ctx, client, cfg, kind, body)
		var te *transportError
		if errors.As(err, &te) {
			if attempt >= maxRetries {
				return 0, retries, transport, fmt.Errorf("load: transport failure persisted past %d retries: %w", attempt, te.err)
			}
			transport++
			select {
			case <-ctx.Done():
				return 0, retries, transport, ctx.Err()
			case <-time.After(tb):
			}
			tb = min(tb*2, transportBackoff)
			continue
		}
		if backoff <= 0 {
			return lat, retries, transport, err
		}
		if attempt >= maxRetries {
			return 0, retries, transport, fmt.Errorf("load: gave up after %d backpressure retries", attempt)
		}
		retries++
		select {
		case <-ctx.Done():
			return 0, retries, transport, ctx.Err()
		case <-time.After(backoff):
		}
	}
}

// loadAttempt returns a positive backoff when the server shed the request
// (503 + retry hint) and the attempt should be retried; transport-level
// failures come back wrapped in transportError so the caller can retry
// them on its own clock.
func loadAttempt(ctx context.Context, client *http.Client, cfg LoadConfig, kind repro.QueryKind, body []byte) (time.Duration, time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		cfg.BaseURL+"/v1/query", bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return 0, 0, err
		}
		return 0, 0, &transportError{err}
	}
	defer resp.Body.Close()
	lat := time.Since(start)
	switch {
	case resp.StatusCode == http.StatusServiceUnavailable:
		// Honor whichever backpressure hint survives, most precise first:
		// the retry_after_ms JSON hint, then the whole-second Retry-After
		// header, then the protocol's documented default.
		var e apiError
		backoff := time.Duration(retryAfterMs) * time.Millisecond
		if json.NewDecoder(resp.Body).Decode(&e) == nil && e.RetryAfterMs > 0 {
			backoff = time.Duration(e.RetryAfterMs) * time.Millisecond
		} else if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && s > 0 {
			backoff = time.Duration(s) * time.Second
		}
		return 0, backoff, nil
	case resp.StatusCode != http.StatusOK:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return 0, 0, fmt.Errorf("load: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, 0, fmt.Errorf("load: decoding response: %w", err)
	}
	if st.State != JobDone.String() || st.Answer == nil {
		return 0, 0, fmt.Errorf("load: job %s finished %q: %s", st.ID, st.State, st.Error)
	}
	if cfg.VerifyAnswers != nil {
		want, known := cfg.VerifyAnswers[kind.String()]
		if known && *st.Answer != want {
			return 0, 0, fmt.Errorf("%w: job %s kind %s", ErrWrongAnswer, st.ID, kind)
		}
	}
	return lat, 0, nil
}
