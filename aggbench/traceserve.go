package main

import (
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/station"
	"repro/internal/wsn"
)

// serveTracer records the spans of every traced request, keyed by the
// X-Agg-Request-Id the generator sets and the proxy forwards, so one id
// ties client -> proxy -> api -> submit/queue/run together.
type serveTracer struct {
	mu       sync.Mutex
	proxy    map[string]interval
	api      map[string]interval
	submit   map[string]interval
	jobs     map[string]*station.Job
	submits  [serveShards]int
	rejected int
}

type interval struct{ start, end time.Time }

func newServeTracer() *serveTracer {
	return &serveTracer{
		proxy:  map[string]interval{},
		api:    map[string]interval{},
		submit: map[string]interval{},
		jobs:   map[string]*station.Job{},
	}
}

// middleware times h and files the interval under the request's id.
func (tr *serveTracer) middleware(into map[string]interval, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		id := r.Header.Get(station.RequestIDHeader)
		tr.mu.Lock()
		into[id] = interval{start, end}
		tr.mu.Unlock()
	})
}

// tracedBackend is the station.Backend decorator of the traced run: it
// times Submit and keeps each job for its queue wait and run time.
type tracedBackend struct {
	*station.Station
	shard int
	tr    *serveTracer
}

func (b tracedBackend) Submit(spec station.QuerySpec) (*station.Job, error) {
	start := time.Now()
	job, err := b.Station.Submit(spec)
	end := time.Now()
	b.tr.mu.Lock()
	defer b.tr.mu.Unlock()
	b.tr.submit[spec.RequestID] = interval{start, end}
	b.tr.submits[b.shard]++
	if err != nil {
		b.tr.rejected++
		return job, err
	}
	b.tr.jobs[spec.RequestID] = job
	return job, nil
}

// requestSpans builds one request's span tree: client (root), proxy, api,
// and the api's children submit, queue and run. Spans a request never
// reached are left out.
func (tr *serveTracer) requestSpans(o outcome, phaseStart time.Time) []span {
	due := phaseStart.Add(o.req.due)
	at := func(t time.Time) time.Duration { return t.Sub(due) }
	spans := []span{{Name: "client", Parent: -1, Start: 0, End: o.latency}}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	p, ok := tr.proxy[o.req.id]
	if !ok {
		return spans
	}
	spans = append(spans, span{Name: "proxy", Parent: 0, Start: at(p.start), End: at(p.end)})
	a, ok := tr.api[o.req.id]
	if !ok {
		return spans
	}
	spans = append(spans, span{Name: "api", Parent: 1, Start: at(a.start), End: at(a.end)})
	if s, ok := tr.submit[o.req.id]; ok {
		spans = append(spans, span{Name: "submit", Parent: 2, Start: at(s.start), End: at(s.end)})
	}
	if job, ok := tr.jobs[o.req.id]; ok {
		st := job.Status()
		q0 := st.SubmittedAt
		q1 := q0.Add(job.QueueWait())
		r1 := q1.Add(job.RunTime())
		spans = append(spans,
			span{Name: "queue", Parent: 2, Start: at(q0), End: at(q1)},
			span{Name: "run", Parent: 2, Start: at(q1), End: at(r1)})
	}
	return spans
}

// traceServe is the traced variant of serve-open. It runs the fixed-rate
// blocks of the untraced run on a traced topology, and before each lo
// block the same lo requests on an untraced one: the ratio of their p50s
// is the tracing overhead. The answers, and so the digest, equal the
// untraced run's. There is no capacity ladder.
func traceServe(rep *report, seeds serveSeeds, refs map[refKey]repro.QueryAnswer, reqs [][][]request, block time.Duration) error {
	plainTop, err := startTopology(seeds.deploy, nil)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer plainTop.close()
	tr := newServeTracer()
	top, err := startTopology(seeds.deploy, tr)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer top.close()
	pc := newLoadClient(plainTop.url, refs)
	defer pc.close()
	c := newLoadClient(top.url, refs)
	defer c.close()

	checked := []phaseResult{pc.warmUp(seeds.pool), c.warmUp(seeds.pool)}
	var plain, traced []phaseResult
	for cyc := range reqs {
		for i, fr := range fixedRates {
			if i == 0 {
				// The plain copy gets its own ids so the tracer never sees them.
				lo := append([]request(nil), reqs[cyc][0]...)
				for j := range lo {
					lo[j].id = "plain-" + lo[j].id
				}
				plain = append(plain, pc.runPhase("lo-plain", fr.rate, block, lo))
			}
			traced = append(traced, c.runPhase(fr.name, fr.rate, block, reqs[cyc][i]))
		}
	}
	for _, ph := range append(append(checked, plain...), traced...) {
		rep.Attempted += len(ph.outcomes)
		for _, o := range ph.outcomes {
			if o.err != nil {
				rep.fail("%s: %s %s seed %d: %v", ph.name, o.req.id, o.req.kind, o.req.seed, o.err)
			}
		}
	}
	rep.Digest = answerDigest(traced)
	var tracedLo []phaseResult
	for _, ph := range traced {
		if ph.name == fixedRates[0].name {
			tracedLo = append(tracedLo, ph)
		}
	}
	rep.set("bench.trace_overhead", rungOf("lo", tracedLo).P50Ms/rungOf("lo-plain", plain).P50Ms-1, "ratio")

	var proxySelf, apiSelf, submit, queueHi, late []float64
	runByWidth := map[int][]float64{}
	peak := 0
	for _, ph := range traced {
		peak = max(peak, ph.peak)
		for _, o := range ph.outcomes {
			late = append(late, ms(o.late))
			spans := tr.requestSpans(o, ph.start)
			self := selfTimes(spans)
			for j, s := range spans {
				switch {
				case s.Name == "proxy" && ph.name == "lo":
					proxySelf = append(proxySelf, ms(self[j]))
				case s.Name == "api" && ph.name == "lo":
					apiSelf = append(apiSelf, ms(self[j]))
				case s.Name == "submit" && ph.name == "lo":
					submit = append(submit, float64(s.End-s.Start)/float64(time.Microsecond))
				case s.Name == "queue" && ph.name == "hi":
					queueHi = append(queueHi, ms(s.End-s.Start))
				case s.Name == "run":
					w := width(o.req.kind)
					runByWidth[w] = append(runByWidth[w], ms(s.End-s.Start))
				}
			}
		}
	}
	rep.set("fleet.proxy.self_ms", median(proxySelf), "ms")
	rep.set("station.api.self_ms", median(apiSelf), "ms")
	rep.set("station.submit_us", median(submit), "us")
	rep.set("station.queue_wait_ms", median(queueHi), "ms")
	rep.set("station.run_ms.w1", median(runByWidth[1]), "ms")
	rep.set("station.run_ms.w16", median(runByWidth[16]), "ms")
	tr.mu.Lock()
	total, most := 0, 0
	for _, n := range tr.submits {
		total += n
		most = max(most, n)
	}
	rep.set("fleet.ring.imbalance", float64(most)/(float64(total)/serveShards), "ratio")
	rep.set("station.rejected", float64(tr.rejected), "count")
	tr.mu.Unlock()
	lateTail, _, _ := tail(late)
	rep.set("bench.gen_late_ms", lateTail, "ms")
	rep.set("bench.inflight_peak", float64(peak), "count")

	sizes, err := observedClusterSizes(seeds.deploy, seeds.pool)
	if err != nil {
		return err
	}
	rep.detail("cluster_sizes", histogram(sizes))
	for _, w := range []int{1, 16} {
		ns, err := sharesReplay(sizes, w)
		if err != nil {
			return err
		}
		rep.set(fmt.Sprintf("shares.recover_ns.w%d", w), ns, "ns")
	}
	return nil
}

// observedClusterSizes runs one core round per pool seed on the serving
// deployment's configuration, observed by a probe, and returns the roster
// sizes it saw: the histogram the share-algebra replay draws from.
func observedClusterSizes(deploySeed int64, pool []int64) ([]int, error) {
	wcfg := wsn.DefaultConfig(serveNodes, deploySeed)
	wcfg.FieldSize = fieldSide(serveNodes)
	env, err := wsn.NewEnv(wcfg)
	if err != nil {
		return nil, err
	}
	var sizes []int
	for _, seed := range pool {
		if err := env.Reset(seed); err != nil {
			return nil, err
		}
		p, err := core.New(env, core.DefaultConfig())
		if err != nil {
			return nil, err
		}
		pr := newProbe()
		pr.attach(env)
		_, err = p.Run(1)
		pr.detach(env)
		if err != nil {
			return nil, fmt.Errorf("cluster sizes: %w", err)
		}
		sizes = append(sizes, pr.rosters...)
	}
	return sizes, nil
}
