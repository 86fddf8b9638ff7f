package experiment

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ipda"
	"repro/internal/metrics"
	"repro/internal/sdap"
	"repro/internal/tag"
	"repro/internal/wsn"
)

// trialSeed derives a deterministic per-trial seed.
func trialSeed(base int64, n, trial int) int64 {
	return base + int64(n)*1_000_003 + int64(trial)*7919
}

// envConfig builds the standard deployment; count=true sets unit readings
// (COUNT query). Every protocol runner takes the *wsn.Env built from it.
func envConfig(n int, seed int64, count bool) wsn.Config {
	cfg := wsn.DefaultConfig(n, seed)
	if count {
		cfg.ReadingMin, cfg.ReadingMax = 1, 1
	}
	return cfg
}

// runTAG executes one TAG round on env.
func runTAG(env *wsn.Env) (metrics.RoundResult, error) {
	p, err := tag.New(env, tag.DefaultConfig())
	if err != nil {
		return metrics.RoundResult{}, err
	}
	return p.Run(1)
}

// runIPDA executes one iPDA round on env; mut may adjust the protocol
// config.
func runIPDA(env *wsn.Env, mut func(*ipda.Config)) (metrics.RoundResult, *ipda.Protocol, error) {
	cfg := ipda.DefaultConfig()
	if mut != nil {
		mut(&cfg)
	}
	p, err := ipda.New(env, cfg)
	if err != nil {
		return metrics.RoundResult{}, nil, err
	}
	res, err := p.Run(1)
	return res, p, err
}

// runCore executes one cluster-protocol round on env; mut may adjust the
// config. Dry-run/replay trials reuse one deployment through env.Reset
// instead of re-deploying the topology for every run at the same seed.
func runCore(env *wsn.Env, mut func(*core.Config)) (metrics.RoundResult, *core.Protocol, error) {
	cfg := core.DefaultConfig()
	if mut != nil {
		mut(&cfg)
	}
	p, err := core.New(env, cfg)
	if err != nil {
		return metrics.RoundResult{}, nil, err
	}
	res, err := p.Run(1)
	return res, p, err
}

// meanOf runs fn over trials and averages the selected metric.
func meanOf(trials int, fn func(trial int) (float64, error)) (float64, error) {
	if trials <= 0 {
		return 0, fmt.Errorf("experiment: trials must be positive")
	}
	var sum float64
	for t := 0; t < trials; t++ {
		v, err := fn(t)
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum / float64(trials), nil
}

// sdapPollutionTrial runs the SDAP comparator against a pollution attack,
// returning detection, applicability, and the round's byte cost.
func sdapPollutionTrial(n int, seed int64, delta int64, sampleFrac float64) (detected, applicable bool, txBytes int, err error) {
	env, err := wsn.NewEnv(envConfig(n, seed, false))
	if err != nil {
		return false, false, 0, err
	}
	dryCfg := sdap.DefaultConfig()
	dryCfg.SampleFraction = 0
	dry, err := sdap.New(env, dryCfg)
	if err != nil {
		return false, false, 0, err
	}
	if _, err := dry.Run(1); err != nil {
		return false, false, 0, err
	}
	polluter := dry.PickAggregator()
	if polluter < 0 {
		return false, false, 0, nil
	}
	// Replay the same deployment with the attack enabled: Reset to the same
	// seed reproduces the dry run bit-for-bit without re-deploying.
	if err := env.Reset(seed); err != nil {
		return false, false, 0, err
	}
	cfg := sdap.DefaultConfig()
	cfg.SampleFraction = sampleFrac
	cfg.Polluter = polluter
	cfg.PollutionDelta = delta
	p, err := sdap.New(env, cfg)
	if err != nil {
		return false, false, 0, err
	}
	r, err := p.Run(1)
	if err != nil {
		return false, false, 0, err
	}
	return !r.Accepted, true, r.TxBytes, nil
}
