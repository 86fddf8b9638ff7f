package trace

import "repro/internal/telemetry"

// Stats is a live counter sink over a telemetry registry: it totals events
// by type and by phase and raises the round and virtual-time high-water
// marks. The counters are resolved once in NewStats, so Emit is a map read
// and a few atomic adds, and a scraper may render the registry from
// another goroutine mid-run. Sinks built over one registry share its
// series: every worker of a station counts into the same set, and the
// registry does the summing.
type Stats struct {
	reg     *telemetry.Registry
	byType  map[string]*telemetry.Counter
	byPhase map[string]*telemetry.Counter
	round   *telemetry.Gauge
	simTime *telemetry.Gauge
}

// Types and phases the protocol stack emits; NewStats resolves their
// counters up front so Emit never takes the registry lock for them.
var (
	knownTypes = []string{TypePhase, TypeLifecycle, TypeElection, TypeJoin,
		TypeWitness, TypeAlarm, TypeWatchdog, TypeCrash, TypeRecover, TypeDrop,
		TypeEngine, TypeRound, TypeFault, TypeShard, TypeBreaker, TypeDegraded,
		TypeRequest, TypeAttack, TypeBreach}
	knownPhases = []string{PhaseFormation, PhaseRoster, PhaseExchange,
		PhaseAssembly, PhaseAnnounce, PhaseFailover, PhaseRepair, PhaseRadio,
		PhaseMAC, PhaseEngine, PhaseFleet, PhaseServe, PhaseAttack}
)

const (
	typeHelp  = "Flight-recorder events by type."
	phaseHelp = "Flight-recorder events by protocol phase."
)

// NewStats returns a counter sink writing into reg.
func NewStats(reg *telemetry.Registry) *Stats {
	s := &Stats{
		reg:     reg,
		byType:  make(map[string]*telemetry.Counter, len(knownTypes)),
		byPhase: make(map[string]*telemetry.Counter, len(knownPhases)),
		round: reg.Gauge("agg_trace_round",
			"High-water mark of the round numbers seen in events."),
		simTime: reg.Gauge("agg_trace_sim_time_ns",
			"High-water mark of event virtual time, nanoseconds."),
	}
	for _, t := range knownTypes {
		s.byType[t] = reg.Counter("agg_trace_events_total", typeHelp, "type", t)
	}
	for _, p := range knownPhases {
		s.byPhase[p] = reg.Counter("agg_trace_phase_events_total", phaseHelp, "phase", p)
	}
	return s
}

// Emit counts the event. A type or phase outside the known set gets its
// series on first use.
func (s *Stats) Emit(ev Event) {
	c := s.byType[ev.Type]
	if c == nil {
		c = s.reg.Counter("agg_trace_events_total", typeHelp, "type", ev.Type)
	}
	c.Inc()
	if ev.Phase != "" {
		c := s.byPhase[ev.Phase]
		if c == nil {
			c = s.reg.Counter("agg_trace_phase_events_total", phaseHelp, "phase", ev.Phase)
		}
		c.Inc()
	}
	s.round.SetMax(int64(ev.Round))
	s.simTime.SetMax(int64(ev.At))
}
