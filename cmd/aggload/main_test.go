package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"repro"
	"repro/internal/benchio"
	"repro/internal/cliutil"
	"repro/internal/station"
)

func startAggd(t *testing.T) string {
	t.Helper()
	st, err := station.New(station.Config{
		Workers: 2, QueueDepth: 8,
		Deploy: repro.Options{Nodes: 80, Seed: 7, Ideal: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(station.NewAPI(st).Handler())
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := st.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return srv.URL
}

// TestLoadRunEmitsBenchioSnapshot drives a short burst against a live
// serving stack and checks the stdout JSON parses back as a benchio
// snapshot with latency and throughput benchmarks.
func TestLoadRunEmitsBenchioSnapshot(t *testing.T) {
	url := startAggd(t)
	var stdout bytes.Buffer
	if _, err := run([]string{
		"-addr", url, "-c", "3", "-n", "9", "-kinds", "sum,min,avg",
	}, &stdout); err != nil {
		t.Fatalf("run: %v", err)
	}
	var snap benchio.Snapshot
	if err := json.Unmarshal(stdout.Bytes(), &snap); err != nil {
		t.Fatalf("stdout is not a benchio snapshot: %v\n%s", err, stdout.String())
	}
	for _, name := range []string{
		"BenchmarkServeLatency/mean", "BenchmarkServeLatency/p50",
		"BenchmarkServeLatency/p95", "BenchmarkServeLatency/p99",
		"BenchmarkServeThroughput",
	} {
		if m, ok := snap.Benchmarks[name]; !ok || m.NsPerOp <= 0 {
			t.Errorf("snapshot missing %s: %+v", name, m)
		}
	}
}

// TestLoadOutFlagWritesFile: -out redirects the snapshot to a file.
func TestLoadOutFlagWritesFile(t *testing.T) {
	url := startAggd(t)
	out := filepath.Join(t.TempDir(), "load.json")
	var stdout bytes.Buffer
	if _, err := run([]string{"-addr", url, "-c", "2", "-n", "4", "-out", out}, &stdout); err != nil {
		t.Fatalf("run: %v", err)
	}
	if stdout.Len() != 0 {
		t.Errorf("-out set but stdout got %q", stdout.String())
	}
	snap, err := benchio.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Benchmarks) != 5 {
		t.Errorf("snapshot has %d benchmarks, want 5", len(snap.Benchmarks))
	}
}

// TestLoadUnreachableServerIsRuntimeError: a dead server is exit 1
// territory (requests errored), not a usage error. One request suffices:
// it rides out the full transport-retry backoff before giving up.
func TestLoadUnreachableServerIsRuntimeError(t *testing.T) {
	var stdout bytes.Buffer
	_, err := run([]string{"-addr", "http://127.0.0.1:1", "-c", "1", "-n", "1", "-timeout", "2s"}, &stdout)
	if err == nil {
		t.Fatal("unreachable server reported success")
	}
	if cliutil.IsUsage(err) {
		t.Fatalf("runtime failure misclassified as usage error: %v", err)
	}
}

// TestLoadBadFlagsAreUsageErrors sweeps nonsensical invocations.
func TestLoadBadFlagsAreUsageErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"zero concurrency", []string{"-c", "0"}},
		{"negative concurrency", []string{"-c", "-3"}},
		{"negative requests", []string{"-n", "-1"}},
		{"negative duration", []string{"-d", "-5s"}},
		{"zero timeout", []string{"-timeout", "0s"}},
		{"unknown kind", []string{"-kinds", "sum,median"}},
		{"not a url", []string{"-addr", "localhost:8080"}},
		{"malformed flag", []string{"-c", "many"}},
		{"unknown flag", []string{"-frobnicate"}},
		{"positional junk", []string{"stuff"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout bytes.Buffer
			_, err := run(tc.args, &stdout)
			if err == nil {
				t.Fatal("bad flags accepted")
			}
			if !cliutil.IsUsage(err) {
				t.Fatalf("want usage error (exit 2), got %T: %v", err, err)
			}
		})
	}
}

// TestSweepModeEmitsShardedThroughput: -shards boots in-process fleets and
// the snapshot carries one BenchmarkServeThroughput/shards=N point per
// count, with the scaling table on stderr.
func TestSweepModeEmitsShardedThroughput(t *testing.T) {
	var stdout bytes.Buffer
	if _, err := run([]string{
		"-shards", "1,2", "-c", "2", "-n", "16",
		"-workers", "1", "-queue", "8", "-nodes", "80", "-seed", "7", "-ideal",
	}, &stdout); err != nil {
		t.Fatalf("sweep run: %v", err)
	}
	var snap benchio.Snapshot
	if err := json.Unmarshal(stdout.Bytes(), &snap); err != nil {
		t.Fatalf("stdout is not a benchio snapshot: %v\n%s", err, stdout.String())
	}
	for _, name := range []string{
		"BenchmarkServeThroughput/shards=1",
		"BenchmarkServeThroughput/shards=2",
	} {
		if m, ok := snap.Benchmarks[name]; !ok || m.NsPerOp <= 0 {
			t.Errorf("snapshot missing %s: %+v", name, m)
		}
	}
}

// TestSweepBadShardCountsAreUsageErrors: malformed -shards lists fail fast.
func TestSweepBadShardCountsAreUsageErrors(t *testing.T) {
	for _, bad := range []string{"0", "-2", "abc", "1,,2", "1,zero"} {
		if _, err := run([]string{"-shards", bad}, &bytes.Buffer{}); err == nil || !cliutil.IsUsage(err) {
			t.Errorf("-shards %q: want usage error, got %v", bad, err)
		}
	}
}
