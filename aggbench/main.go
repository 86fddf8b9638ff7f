// Command aggbench is the repository's benchmark: one command that runs a
// workload, checks every output it produces, and prints the end-to-end
// metrics (or, with --trace 1, the per-layer metrics) by name and unit.
//
//	bash aggbench/run.sh --workload round-cold --seed 1 --seconds 30 --trace 0
//	.bench_build/aggbench -compare before.txt after.txt
//
// Run it from the repository root: it reads BENCHMARK.json there.
//
// Workloads (see README.md for why each exists):
//
//	round-cold   n=10,000 rounds, each Reset(seed) + a fresh protocol Run
//	round-epoch  the same deployment, formation once in set-up, then
//	             ResampleReadings + RunRetaining epochs
//	serve-open   proxy -> 2 station shards over loopback, open-loop
//	             Poisson arrivals at fixed rates plus a capacity ladder
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A line starting with "REPORT "
// before it carries the full report: host fingerprint, simulated digest,
// every metric and the sample counts behind each percentile. Any failed
// correctness check makes the command exit 1.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one named measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is everything one run measured.
type report struct {
	Workload    string            `json:"workload"`
	Seed        int64             `json:"seed"`
	Trace       bool              `json:"trace"`
	Seconds     int               `json:"seconds"`
	Fingerprint fingerprint       `json:"fingerprint"`
	Digest      string            `json:"digest"`
	Attempted   int               `json:"attempted"`
	Failures    []string          `json:"failures,omitempty"`
	Metrics     map[string]metric `json:"metrics"` // every metric the run measured
	Details     map[string]any    `json:"details,omitempty"`

	units map[string]string // BENCHMARK.json's unit of each metric it names
}

// set records a metric; an empty unit takes the one BENCHMARK.json gives.
func (r *report) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	if unit == "" {
		unit = r.units[name]
	}
	r.Metrics[name] = metric{v, unit}
}

func (r *report) detail(name string, v any) {
	if r.Details == nil {
		r.Details = map[string]any{}
	}
	r.Details[name] = v
}

func (r *report) fail(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// spec is the part of BENCHMARK.json the command reads: the metrics the
// result line carries, in order, with their units. Every workload reports
// every name; a layer a workload never calls reads 0 in the traced run.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (spec, error) {
	var sp spec
	b, err := os.ReadFile(path)
	if err != nil {
		return sp, err
	}
	if err := json.Unmarshal(b, &sp); err != nil {
		return sp, fmt.Errorf("%s: %w", path, err)
	}
	if len(sp.EndToEnd) == 0 || len(sp.PerLayer) == 0 {
		return sp, fmt.Errorf("%s lists no metrics", path)
	}
	return sp, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("aggbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "round-cold, round-epoch or serve-open")
	seed := fs.Int64("seed", 1, "workload seed every input is derived from")
	seconds := fs.Int("seconds", 30, "measured seconds")
	traceFlag := fs.Int("trace", 0, "1 runs the traced variant and prints per-layer metrics")
	compare := fs.Bool("compare", false, "compare the REPORT lines of two saved runs: aggbench -compare old new")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "aggbench: -compare takes two files")
			return 2
		}
		return compareReports(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "aggbench: want --workload W --seed N --seconds S --trace 0|1")
		return 2
	}
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(stderr, "aggbench: %v\n", err)
		return 2
	}
	rep := &report{
		Workload:    *workload,
		Seed:        *seed,
		Trace:       *traceFlag == 1,
		Seconds:     *seconds,
		Fingerprint: hostFingerprint(),
		units:       map[string]string{},
	}
	for _, m := range append(sp.EndToEnd, sp.PerLayer...) {
		rep.units[m.Name] = m.Unit
	}
	dur := time.Duration(*seconds) * time.Second
	switch *workload {
	case "round-cold", "round-epoch":
		err = runRounds(rep, *workload == "round-epoch", dur)
	case "serve-open":
		err = runServe(rep, dur)
	default:
		fmt.Fprintf(stderr, "aggbench: unknown workload %q\n", *workload)
		return 2
	}
	if err != nil {
		rep.fail("%v", err)
	}
	return emit(rep, sp, stdout)
}

// emit prints the human-readable summary, the REPORT line and the result
// line, and returns the exit status.
func emit(rep *report, sp spec, w io.Writer) int {
	want := sp.EndToEnd
	if rep.Trace {
		want = sp.PerLayer
	}
	gated := map[string]metric{}
	for _, sm := range want {
		m, ok := rep.Metrics[sm.Name]
		switch {
		case !ok:
			m = metric{0, sm.Unit}
		case m.Unit != sm.Unit:
			rep.fail("%s measured in %s, defined in %s", sm.Name, m.Unit, sm.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			rep.fail("%s is not finite", sm.Name)
			m.Value = 0
		}
		gated[sm.Name] = m
	}

	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "aggbench %s seed=%d trace=%v digest=%s host=%s\n",
		rep.Workload, rep.Seed, rep.Trace, rep.Digest, rep.Fingerprint)
	for _, n := range names {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	for _, f := range rep.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	if line, err := json.Marshal(rep); err == nil {
		fmt.Fprintf(w, "REPORT %s\n", line)
	}
	res := result{
		Correct:   len(rep.Failures) == 0,
		Attempted: max(rep.Attempted, 1),
		Failed:    len(rep.Failures),
		Metrics:   gated,
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(w, `{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}`)
		return 1
	}
	fmt.Fprintf(w, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// fingerprint identifies the host and build a run measured on. Timings
// compare only between runs with equal fingerprints.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
}

func (f fingerprint) String() string {
	return fmt.Sprintf("%q nproc=%d gomaxprocs=%d %s commit=%s", f.CPU, f.NumCPU, f.GOMAXPROCS, f.GoVersion, f.Commit)
}

// sameHost reports whether timings from two fingerprints are comparable.
// The commit is expected to differ between the two sides of a comparison.
func (f fingerprint) sameHost(o fingerprint) bool {
	return f.CPU == o.CPU && f.NumCPU == o.NumCPU && f.GOMAXPROCS == o.GOMAXPROCS && f.GoVersion == o.GoVersion
}

func hostFingerprint() fingerprint {
	f := fingerprint{
		CPU:        "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				f.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				f.Commit = s.Value
			}
		}
	}
	return f
}

// compareReports prints the relative change of every metric between the
// REPORT lines of two saved runs, and flags runs from different hosts.
// It exits 3 when the fingerprints differ.
func compareReports(oldPath, newPath string, stdout, stderr io.Writer) int {
	var reps [2]report
	for i, p := range []string{oldPath, newPath} {
		r, err := readReport(p)
		if err != nil {
			fmt.Fprintf(stderr, "aggbench: %v\n", err)
			return 2
		}
		reps[i] = r
	}
	a, b := reps[0], reps[1]
	status := 0
	if !a.Fingerprint.sameHost(b.Fingerprint) {
		fmt.Fprintf(stdout, "FLAGGED: different hosts, timings are not comparable\n  old %s\n  new %s\n", a.Fingerprint, b.Fingerprint)
		status = 3
	}
	if a.Workload != b.Workload || a.Seed != b.Seed {
		fmt.Fprintf(stdout, "note: comparing %s seed %d with %s seed %d\n", a.Workload, a.Seed, b.Workload, b.Seed)
	}
	if a.Digest != b.Digest {
		fmt.Fprintf(stdout, "simulated digest changed: %s -> %s\n", a.Digest, b.Digest)
	}
	names := make([]string, 0, len(a.Metrics))
	for n := range a.Metrics {
		if _, ok := b.Metrics[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		x, y := a.Metrics[n].Value, b.Metrics[n].Value
		change := "n/a"
		if x != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(y-x)/x)
		}
		fmt.Fprintf(stdout, "  %-28s %14.6g -> %-14.6g %8s %s\n", n, x, y, change, a.Metrics[n].Unit)
	}
	return status
}

func readReport(path string) (report, error) {
	f, err := os.Open(path)
	if err != nil {
		return report{}, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "REPORT "); ok {
			var r report
			if err := json.Unmarshal([]byte(rest), &r); err != nil {
				return report{}, fmt.Errorf("%s: %w", path, err)
			}
			return r, nil
		}
	}
	if err := sc.Err(); err != nil {
		return report{}, fmt.Errorf("%s: %w", path, err)
	}
	return report{}, fmt.Errorf("%s: no REPORT line", path)
}

// liveHeapMiB forces a collection and returns the heap still in use. The
// second collection frees what sync.Pool victim caches kept through the
// first.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// cpuTime returns the CPU time the process has used so far, user and
// system, over all its threads. Every timing the benchmark gates is read
// from this clock: on a KVM guest with paravirtual steal accounting
// (CONFIG_PARAVIRT_TIME_ACCOUNTING) it leaves out the time the hypervisor
// gave this guest's CPUs to other guests, which the wall clock counts and
// which moved wall-clock figures by a quarter between runs of the same
// code on a shared 2-CPU host.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stolenTime returns the time the hypervisor has taken from this guest's
// CPUs since boot, summed over CPUs, from the steal column of /proc/stat;
// 0 where the kernel does not report it.
func stolenTime() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	var ticks int64
	if _, err := fmt.Sscan(f[8], &ticks); err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond // USER_HZ is 100 on Linux
}
