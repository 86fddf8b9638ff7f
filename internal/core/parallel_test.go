package core

import (
	"reflect"
	"testing"

	"repro/internal/field"
	"repro/internal/topo"
	"repro/internal/wsn"
)

// roundSnapshot captures everything a round computed that the parallelism
// knob could conceivably perturb: the base-station answer, every node's
// cluster view, and every announcer's solved sum and participant mask.
type roundSnapshot struct {
	sums    []field.Element
	count   uint32
	alarms  int
	roles   []int
	heads   []topo.NodeID
	masks   []uint64
	sentTo  []topo.NodeID
	deputy  []topo.NodeID
	txBytes int
	txMsgs  int
}

func snapshot(p *Protocol) roundSnapshot {
	s := roundSnapshot{
		sums:    append([]field.Element(nil), p.bsSums...),
		count:   p.bsCount,
		alarms:  p.alarmsRaised,
		txBytes: p.env.Rec.TotalTxBytes(),
		txMsgs:  p.env.Rec.TotalTxMessages(),
	}
	for i := range p.nodes {
		st := &p.nodes[i]
		s.roles = append(s.roles, st.role)
		s.heads = append(s.heads, st.head)
		var mask uint64
		if st.myAnnounce != nil {
			mask = st.myAnnounce.Mask
		}
		s.masks = append(s.masks, mask)
		s.sentTo = append(s.sentTo, st.sentTo)
		s.deputy = append(s.deputy, st.deputy)
	}
	return s
}

// parRounds builds a fresh deployment at the given seed, runs one full round
// plus two retained rounds at the given parallelism, and snapshots each.
func parRounds(t *testing.T, nodes int, seed int64, par int, mut func(*Config)) []roundSnapshot {
	t.Helper()
	wcfg := wsn.DefaultConfig(nodes, seed)
	wcfg.Radio.Ideal = seed%2 == 0 // alternate ideal and lossy radio
	env, err := wsn.NewEnv(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Parallelism = par
	if mut != nil {
		mut(&cfg)
	}
	p, err := New(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out []roundSnapshot
	if _, err := p.Run(1); err != nil {
		t.Fatal(err)
	}
	out = append(out, snapshot(p))
	for r := uint16(2); r <= 3; r++ {
		if _, err := p.RunRetaining(r); err != nil {
			t.Fatal(err)
		}
		out = append(out, snapshot(p))
	}
	return out
}

// TestParallelBitIdenticalToSerial is the determinism property test for the
// scale-out round engine: for every parallelism width, the protocol must
// produce byte-for-byte the results of the serial run — same answers, same
// cluster structure, same traffic — across formation, retained rounds,
// lossy radio, and head-crash failover. The RNG is consumed only in the
// serial passes of each barrier, so worker count must not be observable.
func TestParallelBitIdenticalToSerial(t *testing.T) {
	cases := []struct {
		name  string
		nodes int
		seed  int64
		mut   func(*Config)
	}{
		{"dense-ideal", 400, 2, nil},
		{"lossy", 300, 3, nil},
		{"big-clusters", 500, 4, func(c *Config) { c.Pc = 0.05 }},
		{"head-crash", 350, 5, func(c *Config) { c.HeadCrashRate = 0.15 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			serial := parRounds(t, tc.nodes, tc.seed, 1, tc.mut)
			for _, par := range []int{2, 4, 8} {
				got := parRounds(t, tc.nodes, tc.seed, par, tc.mut)
				for r := range serial {
					if !reflect.DeepEqual(serial[r], got[r]) {
						t.Fatalf("par=%d round %d diverged from serial:\nserial: %+v\npar:    %+v",
							par, r+1, serial[r], got[r])
					}
				}
			}
		})
	}
}

// TestParallelismValidation pins the config contract: 0 means GOMAXPROCS,
// positive widths are taken as-is, negatives are rejected at construction.
func TestParallelismValidation(t *testing.T) {
	env, _ := run(t, 50, 1, true, nil)
	for _, par := range []int{-1, -8} {
		cfg := DefaultConfig()
		cfg.Parallelism = par
		if _, err := New(env, cfg); err == nil {
			t.Errorf("Parallelism=%d should be rejected", par)
		}
	}
	for _, par := range []int{0, 1, 3} {
		cfg := DefaultConfig()
		cfg.Parallelism = par
		p, err := New(env, cfg)
		if err != nil {
			t.Fatalf("Parallelism=%d rejected: %v", par, err)
		}
		if par > 0 && p.par != par {
			t.Errorf("Parallelism=%d resolved to %d", par, p.par)
		}
		if par == 0 && p.par < 1 {
			t.Errorf("Parallelism=0 resolved to %d, want >=1", p.par)
		}
	}
}

// TestSharedAlgebraPerSize pins the canonical-seed invariant the batch
// solver depends on: after a round, every viable cluster of size m holds
// the SAME *shares.Algebra pointer, and its roster seeds are {1..m}.
func TestSharedAlgebraPerSize(t *testing.T) {
	_, p := run(t, 400, 6, true, nil)
	if _, err := p.Run(1); err != nil {
		t.Fatal(err)
	}
	seen := map[int]any{}
	for _, h := range p.Heads() {
		st := &p.nodes[h]
		if st.algebra == nil {
			continue
		}
		m := len(st.roster.Entries)
		for i, e := range st.roster.Entries {
			if e.Seed != field.New(uint64(i+1)) {
				t.Fatalf("head %d entry %d seed %v, want canonical %v", h, i, e.Seed, field.New(uint64(i+1)))
			}
		}
		if prev, ok := seen[m]; ok {
			if prev != st.algebra {
				t.Errorf("two size-%d clusters hold distinct algebras", m)
			}
		} else {
			seen[m] = st.algebra
		}
	}
	if len(seen) == 0 {
		t.Fatal("no viable clusters formed")
	}
}
