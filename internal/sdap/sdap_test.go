package sdap

import (
	"testing"

	"repro/internal/tag"
	"repro/internal/topo"
	"repro/internal/wsn"
)

func run(t *testing.T, nodes int, seed int64, ideal bool, mut func(*Config)) (*wsn.Env, *Protocol) {
	t.Helper()
	wcfg := wsn.DefaultConfig(nodes, seed)
	wcfg.Radio.Ideal = ideal
	env, err := wsn.NewEnv(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	if mut != nil {
		mut(&cfg)
	}
	p, err := New(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return env, p
}

func TestNewValidation(t *testing.T) {
	env, _ := run(t, 50, 1, true, nil)
	muts := []func(*Config){
		func(c *Config) { c.FormationWindow = 0 },
		func(c *Config) { c.EpochSlot = 0 },
		func(c *Config) { c.MaxHops = 0 },
		func(c *Config) { c.SampleFraction = -0.1 },
		func(c *Config) { c.SampleFraction = 1.1 },
	}
	for i, mut := range muts {
		cfg := DefaultConfig()
		mut(&cfg)
		if _, err := New(env, cfg); err == nil {
			t.Errorf("mutation %d should be rejected", i)
		}
	}
}

func TestCleanRoundAccepted(t *testing.T) {
	env, p := run(t, 400, 3, true, nil)
	if !env.Net.Connected() {
		t.Skip("disconnected deployment")
	}
	res, err := p.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Error("clean round rejected")
	}
	if res.ReportedSum != res.TrueSum {
		t.Errorf("ideal channel sum = %d, want %d", res.ReportedSum, res.TrueSum)
	}
	if p.Attested() == 0 {
		t.Error("no aggregators challenged")
	}
}

func TestDetectionIsSamplingBounded(t *testing.T) {
	// The headline property: at sample fraction f, a polluting aggregator
	// is caught with probability ~f, unlike the cluster protocol's 1.0.
	const trials = 40
	detections := map[float64]int{}
	for _, f := range []float64{0.2, 0.8} {
		for trial := 0; trial < trials; trial++ {
			seed := int64(100 + trial)
			env, dry := run(t, 300, seed, true, func(c *Config) { c.SampleFraction = 0 })
			if _, err := dry.Run(1); err != nil {
				t.Fatal(err)
			}
			// Pick a deterministic aggregator with children.
			var polluter topo.NodeID = -1
			for i := 1; i < env.Net.Size(); i++ {
				if dry.tree.Nodes[i].Children > 0 {
					polluter = topo.NodeID(i)
					break
				}
			}
			if polluter < 0 {
				continue
			}
			_, p := run(t, 300, seed, true, func(c *Config) {
				c.SampleFraction = f
				c.Polluter = polluter
				c.PollutionDelta = 5000
			})
			res, err := p.Run(1)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Accepted {
				detections[f]++
			}
		}
	}
	low := float64(detections[0.2]) / trials
	high := float64(detections[0.8]) / trials
	if high <= low {
		t.Errorf("detection should rise with sampling: f=0.2 -> %.2f, f=0.8 -> %.2f", low, high)
	}
	if low > 0.55 {
		t.Errorf("f=0.2 detection %.2f suspiciously high for a sampling scheme", low)
	}
	if high < 0.5 {
		t.Errorf("f=0.8 detection %.2f suspiciously low", high)
	}
	t.Logf("detection: f=0.2 -> %.2f, f=0.8 -> %.2f", low, high)
}

func TestAttestationCostsTraffic(t *testing.T) {
	seed := int64(7)
	_, p0 := run(t, 300, seed, true, func(c *Config) { c.SampleFraction = 0 })
	r0, err := p0.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	_, p1 := run(t, 300, seed, true, func(c *Config) { c.SampleFraction = 0.5 })
	r1, err := p1.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	if r1.TxBytes <= r0.TxBytes {
		t.Errorf("attestation bytes %d should exceed plain %d", r1.TxBytes, r0.TxBytes)
	}
}

func TestLossyChannelStillWorks(t *testing.T) {
	env, p := run(t, 400, 11, false, nil)
	if !env.Net.Connected() {
		t.Skip("disconnected deployment")
	}
	res, err := p.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	if acc := res.Accuracy(); acc < 0.85 {
		t.Errorf("accuracy = %.3f", acc)
	}
}

// TestUnsampledRoundMatchesTAG pins the shared tree: with no aggregator
// challenged, an SDAP round is a TAG round — same draws, same frames, same
// base-station view — on both ideal and lossy channels.
func TestUnsampledRoundMatchesTAG(t *testing.T) {
	for _, ideal := range []bool{true, false} {
		for seed := int64(1); seed <= 5; seed++ {
			_, p := run(t, 300, seed, ideal, func(c *Config) { c.SampleFraction = 0 })
			got, err := p.Run(1)
			if err != nil {
				t.Fatal(err)
			}
			wcfg := wsn.DefaultConfig(300, seed)
			wcfg.Radio.Ideal = ideal
			env, err := wsn.NewEnv(wcfg)
			if err != nil {
				t.Fatal(err)
			}
			tp, err := tag.New(env, tag.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			want, err := tp.Run(1)
			if err != nil {
				t.Fatal(err)
			}
			if got.Protocol != "sdap" {
				t.Errorf("protocol = %q", got.Protocol)
			}
			got.Protocol = want.Protocol
			if got != want {
				t.Errorf("ideal=%v seed=%d: sdap %+v\nwant tag %+v", ideal, seed, got, want)
			}
		}
	}
}
