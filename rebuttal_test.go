package repro

import "testing"

// TestLossyEpochRebuttalReachesDeputy replays a clean lossy epoch run at
// n=10k (no crash, no attack) in which a deputy missed its head's announce
// and claimed a takeover. The live head's rebuttals were broadcasts, and
// both copies collided at the deputy, which then announced in the head's
// stead and was indicted by the dual-announce witnesses: a false alarm on
// a clean round. The rebuttal must reach the claiming deputy, so every
// round is accepted with zero alarms. The seed is the first Int63 of
// rand.NewSource(201).
func TestLossyEpochRebuttalReachesDeputy(t *testing.T) {
	dep, err := NewDeployment(Options{Nodes: 10000, FieldSize: 2000, Seed: 1328773758399916677})
	if err != nil {
		t.Fatal(err)
	}
	res, err := dep.RunClusterRounds(5, ClusterOptions{MaxHops: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if !r.Accepted || r.Alarms != 0 {
			t.Errorf("round %d: accepted=%v alarms=%d takeovers=%d promotions=%d",
				i+1, r.Accepted, r.Alarms, r.Takeovers, r.Promotions)
		}
	}
}
