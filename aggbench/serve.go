package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/fleet"
	"repro/internal/station"
)

// The serve-open topology is aggd -join in one process: a fleet proxy in
// front of serveShards station shards, each one worker deep with a queue of
// serveQueue, every worker deployment n=serveNodes on the lossy channel.
const (
	serveNodes  = 100
	serveShards = 2
	serveQueue  = 64
	poolSeeds   = 16 // requests draw their seed from 1..poolSeeds

	serveSetupRepeats = 9 // set-up is short here; repeats steady its median

	// topologySeed places the serving deployment. It and the request seed
	// pool are fixed, not drawn from the workload seed: at n=100 one
	// placement's or one pool's round costs differ by 10-15%, which would
	// drown the serving layers in input variance. The workload seed drives
	// the request stream — arrival times and which pool seed each request
	// carries.
	topologySeed = 7

	// limitMs is the latency limit the capacity ladder holds the tail to.
	limitMs = 100.0
	// ladderStep is the rate increment of the capacity ladder above hi.
	ladderStep = 8.0
)

// fixedRates are the open-loop rates every untraced run reports latency at.
var fixedRates = []struct {
	name string
	rate float64
}{{"lo", 10}, {"mid", 40}, {"hi", 64}}

var allKinds = []repro.QueryKind{
	repro.QuerySum, repro.QueryCount, repro.QueryAverage, repro.QueryVariance,
	repro.QueryStdDev, repro.QueryMin, repro.QueryMax,
}

// width is the number of share components a query kind aggregates in its
// round: SUM and COUNT one, MIN and MAX a 16-bucket histogram.
func width(k repro.QueryKind) int {
	switch k {
	case repro.QuerySum, repro.QueryCount:
		return 1
	case repro.QueryMin, repro.QueryMax:
		return 16
	}
	return 0
}

type refKey struct {
	kind repro.QueryKind
	seed int64
}

func deployOptions(seed int64) repro.Options {
	return repro.Options{Nodes: serveNodes, FieldSize: fieldSide(serveNodes), Seed: seed}
}

// references computes the offline answer of every (kind, seed) a run can
// request, the way a station worker computes it: Reset(seed), RunQuery.
// Answers go through JSON once, as the served ones do.
func references(deploySeed int64, pool []int64) (map[refKey]repro.QueryAnswer, error) {
	dep, err := repro.NewDeployment(deployOptions(deploySeed))
	if err != nil {
		return nil, err
	}
	refs := map[refKey]repro.QueryAnswer{}
	for _, seed := range pool {
		for _, k := range allKinds {
			if err := dep.Reset(seed); err != nil {
				return nil, err
			}
			ans, err := dep.RunQuery(k, repro.ClusterOptions{})
			if err != nil {
				return nil, fmt.Errorf("reference %s seed %d: %w", k, seed, err)
			}
			if !ans.Accepted || ans.Alarms() != 0 {
				return nil, fmt.Errorf("reference %s seed %d not accepted: %v", k, seed, ans)
			}
			b, err := json.Marshal(ans)
			if err != nil {
				return nil, err
			}
			var back repro.QueryAnswer
			if err := json.Unmarshal(b, &back); err != nil {
				return nil, err
			}
			refs[refKey{k, seed}] = back
		}
	}
	return refs, nil
}

// topology is one running proxy + shards set-up.
type topology struct {
	stations []*station.Station
	servers  []*http.Server
	url      string
	wg       sync.WaitGroup
}

// startTopology builds the stations, serves each shard's API and the proxy
// on loopback ports, and returns once all of them accept connections.
// With tr set, every seam the traced run observes is wrapped.
func startTopology(deploySeed int64, tr *serveTracer) (*topology, error) {
	t := &topology{}
	var urls []string
	for i := 0; i < serveShards; i++ {
		st, err := station.New(station.Config{
			Workers:    1,
			QueueDepth: serveQueue,
			Deploy:     deployOptions(deploySeed),
			IDPrefix:   fmt.Sprintf("s%d-", i),
		})
		if err != nil {
			t.close()
			return nil, err
		}
		t.stations = append(t.stations, st)
		var backend station.Backend = st
		if tr != nil {
			backend = tracedBackend{Station: st, shard: i, tr: tr}
		}
		h := station.NewAPI(backend).Handler()
		if tr != nil {
			h = tr.middleware(tr.api, h)
		}
		u, err := t.serve(h)
		if err != nil {
			t.close()
			return nil, err
		}
		urls = append(urls, u)
	}
	p, err := fleet.NewProxyWith(urls, fleet.ProxyOptions{})
	if err != nil {
		t.close()
		return nil, err
	}
	h := p.Handler()
	if tr != nil {
		h = tr.middleware(tr.proxy, h)
	}
	if t.url, err = t.serve(h); err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

func (t *topology) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	t.servers = append(t.servers, srv)
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		_ = srv.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return "http://" + ln.Addr().String(), nil
}

// close shuts the servers down, drains the stations and waits for every
// goroutine the topology started.
func (t *topology) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := len(t.servers) - 1; i >= 0; i-- {
		_ = t.servers[i].Shutdown(ctx) // a timeout leaves nothing to recover
	}
	t.wg.Wait()
	for _, st := range t.stations {
		_ = st.Drain(ctx) // the queues are empty once every request returned
	}
}

// request is one scheduled query.
type request struct {
	id   string
	due  time.Duration // offset from the phase start
	kind repro.QueryKind
	seed int64
}

// outcome is what one request came back with.
type outcome struct {
	req     request
	late    time.Duration // dispatch time minus due time
	latency time.Duration // completion time minus due time
	err     error         // refused, failed or wrong
	wrong   bool          // answered 200 with an answer unequal to the reference
	ans     repro.QueryAnswer
	ranMs   float64 // the station's run time for the job, from the response
}

// phaseResult is one open-loop phase.
type phaseResult struct {
	name     string
	rate     float64
	start    time.Time
	outcomes []outcome
	backlog  []int // outstanding requests, sampled through the schedule
	peak     int
}

// plan builds a phase's requests: Poisson due times from schedSeed, kinds
// cycling through all seven, seeds drawn from the pool.
func plan(name string, rate float64, dur time.Duration, schedSeed int64, pool []int64) []request {
	due := poissonSchedule(schedSeed, rate, dur)
	rng := rand.New(rand.NewSource(schedSeed + 1))
	reqs := make([]request, len(due))
	for i, d := range due {
		reqs[i] = request{
			id:   fmt.Sprintf("bench-%s-%d", name, i),
			due:  d,
			kind: allKinds[i%len(allKinds)],
			seed: pool[rng.Intn(len(pool))],
		}
	}
	return reqs
}

// loadClient sends the benchmark's requests over at most nproc
// connections: requests beyond that wait for a connection, and that wait
// counts in their latency.
type loadClient struct {
	http *http.Client
	url  string
	refs map[refKey]repro.QueryAnswer
}

func newLoadClient(url string, refs map[refKey]repro.QueryAnswer) *loadClient {
	n := runtime.NumCPU()
	tr := &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n, IdleConnTimeout: time.Minute}
	return &loadClient{http: &http.Client{Transport: tr, Timeout: 30 * time.Second}, url: url, refs: refs}
}

func (c *loadClient) close() { c.http.CloseIdleConnections() }

// do sends one sync query and checks the answer against its reference.
// A non-200 answer is a failure and is not retried. The outcome's timing
// fields are left to the caller.
func (c *loadClient) do(r request) outcome {
	o := outcome{req: r}
	body, err := json.Marshal(map[string]any{"kind": r.kind.String(), "seed": r.seed})
	if err != nil {
		o.err = err
		return o
	}
	req, err := http.NewRequest(http.MethodPost, c.url+"/v1/query", bytes.NewReader(body))
	if err != nil {
		o.err = err
		return o
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(station.RequestIDHeader, r.id)
	resp, err := c.http.Do(req)
	if err != nil {
		o.err = err
		return o
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	switch {
	case err != nil:
		o.err = err
		return o
	case resp.StatusCode != http.StatusOK:
		o.err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
		return o
	}
	var st station.JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		o.err = fmt.Errorf("decoding answer: %w", err)
		return o
	}
	if st.Answer == nil {
		o.err = errors.New("200 without an answer")
		return o
	}
	o.ans, o.ranMs = *st.Answer, st.RanMs
	want, ok := c.refs[refKey{r.kind, r.seed}]
	switch {
	case !ok:
		o.err = fmt.Errorf("no reference for %s seed %d", r.kind, r.seed)
	case o.ans != want:
		o.wrong = true
		o.err = fmt.Errorf("%s seed %d answered %v, offline %v", r.kind, r.seed, o.ans, want)
	}
	return o
}

// runPhase sends reqs open-loop: each at its due time whatever is still
// outstanding, timed from the due time. It returns once every request has
// completed.
func (c *loadClient) runPhase(name string, rate float64, dur time.Duration, reqs []request) phaseResult {
	res := phaseResult{name: name, rate: rate, outcomes: make([]outcome, len(reqs))}
	var outstanding atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	res.start = start
	stopSampling := make(chan struct{})
	sampled := make(chan []int)
	go func() {
		var samples []int
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopSampling:
				sampled <- samples
				return
			case <-tick.C:
				samples = append(samples, int(outstanding.Load()))
			}
		}
	}()
	for i, r := range reqs {
		if wait := time.Until(start.Add(r.due)); wait > 0 {
			time.Sleep(wait)
		}
		sent := time.Now()
		n := int(outstanding.Add(1))
		res.peak = max(res.peak, n)
		wg.Add(1)
		go func(i int, r request, sent time.Time) {
			defer wg.Done()
			defer outstanding.Add(-1)
			o := c.do(r)
			o.late = sent.Sub(start.Add(r.due))
			o.latency = time.Since(start.Add(r.due))
			res.outcomes[i] = o
		}(i, r, sent)
	}
	if wait := time.Until(start.Add(dur)); wait > 0 {
		time.Sleep(wait)
	}
	close(stopSampling)
	res.backlog = <-sampled
	wg.Wait()
	return res
}

// growing reports a backlog that rose across a phase: the mean number of
// outstanding requests over the last third of the samples exceeds the
// first third's by more than the requests one latency limit admits.
func growing(samples []int, rate float64) bool {
	k := len(samples) / 3
	if k == 0 {
		return false
	}
	var first, last float64
	for i := 0; i < k; i++ {
		first += float64(samples[i])
		last += float64(samples[len(samples)-1-i])
	}
	return (last-first)/float64(k) > math.Max(2, rate*limitMs/1000)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// serveSeeds are the derived seeds of one serve-open run.
type serveSeeds struct {
	deploy int64
	pool   []int64
	sched  func(i int) int64 // schedule seed of the i-th phase
}

func deriveServeSeeds(seed int64) serveSeeds {
	base := deriveSeeds(seed, 1)[0]
	pool := make([]int64, poolSeeds)
	for i := range pool {
		pool[i] = int64(i + 1)
	}
	return serveSeeds{
		deploy: topologySeed,
		pool:   pool,
		sched:  func(i int) int64 { return base + int64(i)*7919 },
	}
}

// serveCycles is how many times the fixed-rate section visits each rate.
// Short blocks in rotation spread every rate's samples over the whole run,
// so a slow spell of the host lands on all rates alike.
const serveCycles = 3

// blockLen is the length of one fixed-rate block and of one ladder rung:
// the fixed-rate section takes 60% of the run, the ladder up to 40%. A
// block never drops below a second, so even lo sees requests.
func blockLen(dur time.Duration) time.Duration { return max(dur/15, time.Second) }

// fixedPlan returns the requests of every fixed-rate block, by cycle and
// rate. The traced run replays exactly these, so both runs answer the same
// requests.
func fixedPlan(seeds serveSeeds, block time.Duration) [][][]request {
	out := make([][][]request, serveCycles)
	for c := range out {
		for i, fr := range fixedRates {
			name := fmt.Sprintf("%s-c%d", fr.name, c)
			out[c] = append(out[c], plan(name, fr.rate, block, seeds.sched(c*len(fixedRates)+i), seeds.pool))
		}
	}
	return out
}

// rungOf summarises the blocks run at one rate. A failed request counts as
// missing the latency limit.
func rungOf(label string, blocks []phaseResult) rung {
	r := rung{Label: label, Rate: blocks[0].rate}
	var lat []float64
	for _, b := range blocks {
		r.Growing = r.Growing || growing(b.backlog, b.rate)
		for _, o := range b.outcomes {
			r.Offered++
			if o.err != nil {
				r.Failures++
				lat = append(lat, math.MaxFloat64)
				continue
			}
			lat = append(lat, ms(o.latency))
		}
	}
	r.P50Ms = median(lat)
	r.TailMs = math.MaxFloat64
	if v, pct, ok := tail(lat); ok {
		r.TailMs, r.TailPct = v, pct
	}
	return r
}

// runServe runs serve-open for dur and fills rep.
func runServe(rep *report, dur time.Duration) error {
	seeds := deriveServeSeeds(rep.Seed)
	refs, err := references(seeds.deploy, seeds.pool)
	if err != nil {
		return err
	}
	block := blockLen(dur)
	reqs := fixedPlan(seeds, block)
	if rep.Trace {
		return traceServe(rep, seeds, refs, reqs, block)
	}
	// Set-up is building the topology and warming it: one request of each
	// kind opens the connections and makes each shard worker allocate its
	// round state, which a cold topology would otherwise do inside the
	// first timed requests.
	var top *topology
	var c *loadClient
	var warms []phaseResult
	var setups, setupWall []float64
	for i := 0; i < serveSetupRepeats; i++ {
		if top != nil {
			c.close()
			top.close()
		}
		runtime.GC() // collect the previous copy before timing the next
		start, cpu0 := time.Now(), cpuTime()
		if top, err = startTopology(seeds.deploy, nil); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		c = newLoadClient(top.url, refs)
		warms = append(warms, c.warmUp(seeds.pool))
		setups = append(setups, (cpuTime() - cpu0).Seconds())
		setupWall = append(setupWall, time.Since(start).Seconds())
	}
	defer top.close()
	defer c.close()
	rep.set("setup_s", median(setups), "s")
	rep.detail("setup_s.samples", setups)
	rep.detail("setup_wall_s.samples", setupWall)

	// Measured before the load: after it, each shard's retained-job buffer
	// holds as many jobs as the seed's request stream routed to it, which
	// moves the heap by a tenth from seed to seed.
	rep.set("live_heap_mib", liveHeapMiB(), "MiB")
	byRate := make([][]phaseResult, len(fixedRates))
	var fixed []phaseResult
	var fixedCPU time.Duration
	steal0 := stolenTime()
	for cyc := range reqs {
		for i, fr := range fixedRates {
			// runPhase returns once every request of the block has
			// completed, so this is the whole process's CPU time for
			// serving them: client, proxy, shard APIs, queues and rounds.
			cpu0 := cpuTime()
			ph := c.runPhase(fr.name, fr.rate, block, reqs[cyc][i])
			fixedCPU += cpuTime() - cpu0
			byRate[i] = append(byRate[i], ph)
			fixed = append(fixed, ph)
		}
	}
	rep.detail("steal_s", (stolenTime() - steal0).Seconds())
	served := 0
	for _, ph := range fixed {
		served += len(ph.outcomes)
	}
	rep.set("cpu_ms_per_op", ms(fixedCPU)/float64(max(served, 1)), "ms")
	var rungs []rung
	for i, fr := range fixedRates {
		r := rungOf(fr.name, byRate[i])
		rungs = append(rungs, r)
		rep.set("p50_ms."+fr.name, r.P50Ms, "ms")
		rep.set("tail_ms."+fr.name, r.TailMs, "ms")
		rep.detail("tail_pct."+fr.name, r.TailPct)
		rep.detail("samples."+fr.name, r.Offered)
	}
	// The ladder climbs above hi until a rung misses a condition; its
	// refusals are the capacity search working, not wrong answers.
	var ladder []phaseResult
	for i := 1; i <= 6; i++ {
		rate := fixedRates[len(fixedRates)-1].rate + ladderStep*float64(i)
		name := fmt.Sprintf("ladder%d", int(rate))
		ph := c.runPhase(name, rate, block, plan(name, rate, block, seeds.sched(1000+i), seeds.pool))
		ladder = append(ladder, ph)
		r := rungOf(name, []phaseResult{ph})
		rungs = append(rungs, r)
		if !r.meets(limitMs) {
			break
		}
	}
	best := selectMaxRate(rungs, limitMs)
	maxRPS := 0.0
	if best >= 0 {
		maxRPS = rungs[best].Rate
	}
	rep.set("max_rps", maxRPS, "1/s")
	rep.detail("ladder", rungs)

	var bytes, particip []float64
	var ran float64
	var late time.Duration
	for _, ph := range append(warms, fixed...) {
		for _, o := range ph.outcomes {
			rep.Attempted++
			if o.err != nil {
				rep.fail("%s: %s %s seed %d: %v", ph.name, o.req.id, o.req.kind, o.req.seed, o.err)
				continue
			}
			late = max(late, o.late)
			ran += o.ranMs / 1000
			bytes = append(bytes, float64(o.ans.Round.TxBytes)/serveNodes)
			particip = append(particip, o.ans.Participation())
		}
	}
	for _, ph := range ladder {
		for _, o := range ph.outcomes {
			rep.Attempted++
			if o.wrong {
				rep.fail("%s: %s: %v", ph.name, o.req.id, o.err)
			}
		}
	}
	rep.set("fail_ratio", float64(len(rep.Failures))/float64(max(rep.Attempted, 1)), "ratio")
	rep.set("bytes_per_node", mean(bytes), "B")
	rep.set("participation", mean(particip), "ratio")
	// The end-to-end metrics every workload reports: the round engine's
	// rate per second of run time, from each job's ran_ms, and the
	// unloaded latency of one operation.
	rep.set("rounds_per_s", float64(len(bytes))/ran, "1/s")
	rep.set("p50_ms", rep.Metrics["p50_ms.lo"].Value, "ms")
	rep.set("tail_ms", rep.Metrics["tail_ms.hi"].Value, "ms")
	rep.detail("gen_late_max_ms", ms(late))
	rep.Digest = answerDigest(fixed)
	return nil
}

// warmUp sends one request of each kind closed-loop, so connections and
// lazily built state exist before the first timed phase.
func (c *loadClient) warmUp(pool []int64) phaseResult {
	res := phaseResult{name: "warm-up"}
	for i, k := range allKinds {
		res.outcomes = append(res.outcomes, c.do(request{id: fmt.Sprintf("bench-warm-%d", i), kind: k, seed: pool[i%len(pool)]}))
	}
	return res
}

// answerDigest hashes every answer of the fixed-rate phases in schedule
// order; for a seed it repeats exactly whatever the host's speed.
func answerDigest(phases []phaseResult) string {
	h := sha256.New()
	for _, ph := range phases {
		for _, o := range ph.outcomes {
			fmt.Fprintf(h, "%s|%+v\n", o.req.id, o.ans)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}
