package repro

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/aggfunc"
	"repro/internal/core"
)

// QueryKind enumerates the statistics queries the protocol answers by
// reduction to additive aggregation (the paper's mean/count/variance
// construction plus bucketised MIN/MAX).
type QueryKind int

// Supported query kinds.
const (
	QuerySum QueryKind = iota + 1
	QueryCount
	QueryAverage
	QueryVariance
	QueryStdDev
	QueryMin
	QueryMax
)

// MarshalJSON encodes the kind by name, so service payloads read
// "kind": "sum" instead of an opaque enum ordinal.
func (k QueryKind) MarshalJSON() ([]byte, error) {
	if _, err := k.internal(); err != nil {
		return nil, err
	}
	return json.Marshal(k.String())
}

// UnmarshalJSON decodes a kind name (see ParseQueryKind).
func (k *QueryKind) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("repro: query kind must be a string: %w", err)
	}
	parsed, err := ParseQueryKind(s)
	if err != nil {
		return err
	}
	*k = parsed
	return nil
}

// String names the kind the way the query layer and the service API spell
// it: sum, count, average, variance, stddev, min, max.
func (k QueryKind) String() string {
	ik, err := k.internal()
	if err != nil {
		return fmt.Sprintf("queryKind(%d)", int(k))
	}
	return ik.String()
}

// ParseQueryKind maps a kind name (as produced by QueryKind.String, plus
// the common aliases avg and var) back to the kind. It is what the service
// API and the load driver use to decode wire requests.
func ParseQueryKind(s string) (QueryKind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "sum":
		return QuerySum, nil
	case "count":
		return QueryCount, nil
	case "average", "avg":
		return QueryAverage, nil
	case "variance", "var":
		return QueryVariance, nil
	case "stddev":
		return QueryStdDev, nil
	case "min":
		return QueryMin, nil
	case "max":
		return QueryMax, nil
	default:
		return 0, fmt.Errorf("repro: unknown query kind %q", s)
	}
}

func (k QueryKind) internal() (aggfunc.Kind, error) {
	switch k {
	case QuerySum:
		return aggfunc.Sum, nil
	case QueryCount:
		return aggfunc.Count, nil
	case QueryAverage:
		return aggfunc.Average, nil
	case QueryVariance:
		return aggfunc.Variance, nil
	case QueryStdDev:
		return aggfunc.StdDev, nil
	case QueryMin:
		return aggfunc.Min, nil
	case QueryMax:
		return aggfunc.Max, nil
	default:
		return 0, fmt.Errorf("repro: unknown query kind %d", k)
	}
}

// QueryAnswer is the base station's answer to a statistics query.
type QueryAnswer struct {
	Kind     QueryKind `json:"kind"`     // the query that was answered
	Value    float64   `json:"value"`    // aggregated answer
	Truth    float64   `json:"truth"`    // ground truth over all deployed sensors
	Rounds   int       `json:"rounds"`   // aggregation rounds spent
	Accepted bool      `json:"accepted"` // false if any round tripped the integrity check
	Round    Result    `json:"round"`    // full per-round accounting behind the answer
}

// Participation is the fraction of deployed sensors whose reading entered
// the aggregate the answer was computed from.
func (a QueryAnswer) Participation() float64 { return a.Round.ParticipationRate() }

// Alarms is the number of witness alarms the base station received while
// answering.
func (a QueryAnswer) Alarms() int { return a.Round.Alarms }

// String renders the answer on one line — the form service logs and /v1
// responses use, so nothing downstream hand-formats results:
//
//	sum=20655.000 (truth 20655.000, participation 1.000, accepted)
//	average=54.881 (truth 55.103, participation 0.963, REJECTED, 2 alarms)
func (a QueryAnswer) String() string {
	verdict := "accepted"
	if !a.Accepted {
		verdict = "REJECTED"
	}
	s := fmt.Sprintf("%s=%.3f (truth %.3f, participation %.3f, %s",
		a.Kind, a.Value, a.Truth, a.Participation(), verdict)
	if n := a.Alarms(); n > 0 {
		s += fmt.Sprintf(", %d alarms", n)
	}
	return s + ")"
}

// RunQuery answers a statistics query with the cluster-based protocol: the
// query compiles to additive components that travel together as one vector
// through a single aggregation round, so every component is computed over
// exactly the same participant population. Individual readings stay
// protected by the share algebra throughout.
func (d *Deployment) RunQuery(kind QueryKind, o ClusterOptions) (QueryAnswer, error) {
	ik, err := kind.internal()
	if err != nil {
		return QueryAnswer{}, err
	}
	p, err := core.New(d.env, o.config())
	if err != nil {
		return QueryAnswer{}, fmt.Errorf("repro: %w", err)
	}
	q := aggfunc.Query{
		Kind:       ik,
		ReadingMin: d.env.Cfg.ReadingMin,
		ReadingMax: d.env.Cfg.ReadingMax,
	}
	out, err := p.RunQuery(q, 1)
	if err != nil {
		return QueryAnswer{}, fmt.Errorf("repro: %w", err)
	}
	ans := QueryAnswer{
		Kind:     kind,
		Value:    out.Value,
		Truth:    out.Truth,
		Rounds:   out.Rounds,
		Accepted: out.Accepted,
	}
	if len(out.Results) > 0 {
		ans.Round = out.Results[0]
	}
	return ans, nil
}
