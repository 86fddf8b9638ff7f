package repro

import (
	"encoding/json"
	"testing"
)

// TestJSONGolden pins the wire form of the facade's result types: the
// snake_case field names and their order are what /v1/query bodies carry,
// and Traffic's names label the per-worker traffic series on /metricsz,
// so any change here is a protocol change.
func TestJSONGolden(t *testing.T) {
	round := Result{
		Protocol: "icpda", TrueSum: 1, TrueCount: 2, ReportedSum: 3, ReportedCnt: 4,
		Participants: 5, Covered: 6, Accepted: true, Alarms: 7,
		DegradedClusters: 8, FailedClusters: 9,
		Takeovers: 10, Promotions: 11, OrphansRejoined: 12,
		TxBytes: 13, TxMessages: 14, AppMessages: 15,
	}
	const wantRound = `{"protocol":"icpda","true_sum":1,"true_count":2,` +
		`"reported_sum":3,"reported_count":4,"participants":5,"covered":6,` +
		`"accepted":true,"alarms":7,"degraded_clusters":8,"failed_clusters":9,` +
		`"takeovers":10,"promotions":11,"orphans_rejoined":12,` +
		`"tx_bytes":13,"tx_messages":14,"app_messages":15}`
	ans := QueryAnswer{Kind: QueryAverage, Value: 1.5, Truth: 2.25, Rounds: 3, Accepted: false, Round: round}
	traffic := Traffic{TxBytes: 1, RxBytes: 2, TxMessages: 3, RxMessages: 4, AppMessages: 5, Collisions: 6, Dropped: 7}

	for _, tc := range []struct {
		name string
		v    any
		want string
	}{
		{"Result", round, wantRound},
		{"QueryAnswer", ans, `{"kind":"average","value":1.5,"truth":2.25,"rounds":3,"accepted":false,"round":` + wantRound + `}`},
		{"Traffic", traffic, `{"tx_bytes":1,"rx_bytes":2,"tx_messages":3,"rx_messages":4,"app_messages":5,"collisions":6,"dropped":7}`},
	} {
		got, err := json.Marshal(tc.v)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if string(got) != tc.want {
			t.Errorf("%s JSON =\n%s\nwant\n%s", tc.name, got, tc.want)
		}
	}
}
