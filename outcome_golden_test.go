package repro

import (
	"encoding/json"
	"testing"
)

// TestRoundOutcomesPinned pins the exact base-station outcome of a few
// facade scenarios, one per recovery path of the round engine: degraded
// subset recovery on a lossy channel, deputy takeover and cross-round
// promotion, the plain undersized fallback, the no-degrade ablation, and a
// multi-component query. The values were recorded from the engine itself;
// a refactor of the round engine must reproduce every field bit for bit.
// A deliberate protocol change re-records them and says so.
func TestRoundOutcomesPinned(t *testing.T) {
	lossy := Options{Nodes: 400, Seed: 3, LossRate: 0.05}
	clean := Options{Nodes: 400, Seed: 5}
	for _, tc := range []struct {
		name string
		opts Options
		run  func(*Deployment) (any, error)
		want string
	}{
		{"lossy-degraded", lossy, func(d *Deployment) (any, error) {
			return d.RunCluster(ClusterOptions{})
		}, `{"protocol":"icpda","true_sum":23087,"true_count":399,"reported_sum":18887,"reported_count":327,"participants":327,"covered":385,"accepted":true,"alarms":0,"degraded_clusters":2,"failed_clusters":8,"takeovers":0,"promotions":0,"orphans_rejoined":0,"tx_bytes":354629,"tx_messages":9472,"app_messages":5580}`},
		{"headcrash-recover", clean, func(d *Deployment) (any, error) {
			return d.RunClusterRounds(3, ClusterOptions{HeadCrashRate: 0.2, CrashRecover: true})
		}, `[{"protocol":"icpda","true_sum":22009,"true_count":399,"reported_sum":18052,"reported_count":332,"participants":332,"covered":398,"accepted":true,"alarms":0,"degraded_clusters":8,"failed_clusters":8,"takeovers":7,"promotions":0,"orphans_rejoined":0,"tx_bytes":352000,"tx_messages":9430,"app_messages":5590},` +
			`{"protocol":"icpda","true_sum":22095,"true_count":399,"reported_sum":11375,"reported_count":211,"participants":211,"covered":396,"accepted":true,"alarms":0,"degraded_clusters":9,"failed_clusters":7,"takeovers":5,"promotions":9,"orphans_rejoined":21,"tx_bytes":352505,"tx_messages":8873,"app_messages":5431},` +
			`{"protocol":"icpda","true_sum":21287,"true_count":399,"reported_sum":10036,"reported_count":190,"participants":190,"covered":392,"accepted":true,"alarms":0,"degraded_clusters":12,"failed_clusters":23,"takeovers":4,"promotions":6,"orphans_rejoined":31,"tx_bytes":427802,"tx_messages":11020,"app_messages":6563}]`},
		{"plain-fallback", clean, func(d *Deployment) (any, error) {
			return d.RunCluster(ClusterOptions{PlainFallback: true, NoMerge: true})
		}, `{"protocol":"icpda","true_sum":22009,"true_count":399,"reported_sum":21339,"reported_count":387,"participants":387,"covered":397,"accepted":true,"alarms":0,"degraded_clusters":3,"failed_clusters":1,"takeovers":0,"promotions":0,"orphans_rejoined":0,"tx_bytes":256223,"tx_messages":6941,"app_messages":4018}`},
		{"no-degrade", lossy, func(d *Deployment) (any, error) {
			return d.RunCluster(ClusterOptions{NoDegrade: true})
		}, `{"protocol":"icpda","true_sum":23087,"true_count":399,"reported_sum":18344,"reported_count":319,"participants":319,"covered":385,"accepted":true,"alarms":0,"degraded_clusters":0,"failed_clusters":10,"takeovers":0,"promotions":0,"orphans_rejoined":0,"tx_bytes":303716,"tx_messages":8234,"app_messages":4761}`},
		{"variance-query", lossy, func(d *Deployment) (any, error) {
			return d.RunQuery(QueryVariance, ClusterOptions{})
		}, `{"kind":"variance","value":682.0670462299076,"truth":692.5799963568065,"rounds":1,"accepted":true,"round":{"protocol":"icpda","true_sum":23087,"true_count":399,"reported_sum":1222808,"reported_count":299,"participants":299,"covered":385,"accepted":true,"alarms":0,"degraded_clusters":3,"failed_clusters":13,"takeovers":0,"promotions":0,"orphans_rejoined":0,"tx_bytes":436543,"tx_messages":10271,"app_messages":6184}}`},
	} {
		dep, err := NewDeployment(tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		out, err := tc.run(dep)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Errorf("%s outcome =\n%s\nwant\n%s", tc.name, got, tc.want)
		}
	}
}
