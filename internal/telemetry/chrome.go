package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"mpsocsim/internal/attr"
	"mpsocsim/internal/bus"
	"mpsocsim/internal/tracecap"
)

// Chrome trace-event export: renders a captured transaction trace (duration
// events — one slice per transaction lifecycle, one thread row per
// initiator) together with the collector's records (counter tracks — one per
// gauge) into the Chrome trace-event JSON format, loadable in
// ui.perfetto.dev or chrome://tracing. Every clock domain's cycles are
// converted to a shared picosecond axis through its period, and every record
// is stamped at its simulated time, then both go to the trace format's
// microsecond unit, so cross-domain causality (an initiator burst inflating
// the LMI queue two domains away) lines up visually.

// Trace-event pids: one synthetic "process" per event family keeps the
// Perfetto track groups tidy.
const (
	chromePidInitiators = 1
	chromePidCounters   = 2
)

// chromeEvent is one trace event. Field presence follows the trace-event
// format spec: "X" (complete) events carry dur; "C" (counter) and "M"
// (metadata) events don't.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// psToUS converts picoseconds to the trace format's microseconds.
func psToUS(ps int64) float64 { return float64(ps) / 1e6 }

// WriteChromeTrace renders tr and recs into Chrome trace-event JSON: one
// counter event per gauge per record, stamped at the record's TimePS. Any
// argument may be nil: a nil trace omits the lifecycle slices, no records
// omit the counter tracks, and a nil attribution collector omits the phase
// sub-slices. Events are emitted
// sorted by timestamp (metadata first), which both viewers accept and which
// makes the output deterministic and easy to assert on.
//
// When att carries retained transactions (attr.Collector.EnableRetention),
// each one is matched to its capture lifecycle slice — same initiator name,
// same issue cycle — and rendered as nested "X" sub-slices, one per
// attribution phase, exactly tiling the parent: a per-transaction waterfall
// of where the latency went. Retained transactions without a capture stream
// (e.g. the DSP core, which is not captured) are skipped.
func WriteChromeTrace(w io.Writer, tr *tracecap.Trace, recs []Record, att *attr.Collector) error {
	var events []chromeEvent
	meta := func(pid, tid int, kind, name string) {
		events = append(events, chromeEvent{
			Name: kind, Ph: "M", Pid: pid, Tid: tid,
			Args: map[string]any{"name": name},
		})
	}
	meta(chromePidInitiators, 0, "process_name", "initiators")
	meta(chromePidCounters, 0, "process_name", "metrics")

	// Index the retained attribution records by initiator name; each stream
	// below re-indexes its slice by issue cycle (the record's start is the
	// edge after the issue cycle, so StartPS/period-1 recovers the cycle the
	// capture stamped).
	var retByName map[string][]*attr.RetainedTx
	if att != nil {
		txs := att.Retained()
		if len(txs) > 0 {
			retByName = make(map[string][]*attr.RetainedTx)
			for i := range txs {
				tx := &txs[i]
				name := att.InitiatorName(tx.Origin)
				retByName[name] = append(retByName[name], tx)
			}
		}
	}

	var body []chromeEvent
	if tr != nil {
		for i, s := range tr.Streams {
			tid := i + 1
			meta(chromePidInitiators, tid, "thread_name", s.Name)
			var retByCycle map[int64]*attr.RetainedTx
			if list := retByName[s.Name]; len(list) > 0 && s.PeriodPS > 0 {
				retByCycle = make(map[int64]*attr.RetainedTx, len(list))
				for _, tx := range list {
					retByCycle[tx.StartPS/s.PeriodPS-1] = tx
				}
			}
			for j := range s.Events {
				ev := &s.Events[j]
				lat := ev.Latency
				if lat < 0 {
					lat = 0 // still in flight at capture stop: zero-width marker
				}
				name := "read"
				if ev.Op == bus.OpWrite {
					name = "write"
					if ev.Posted {
						name = "posted-write"
					}
				}
				parentTS := ev.IssueCycle * s.PeriodPS
				body = append(body, chromeEvent{
					Name: name,
					Ph:   "X",
					Ts:   psToUS(parentTS),
					Dur:  psToUS(lat * s.PeriodPS),
					Pid:  chromePidInitiators,
					Tid:  tid,
					Args: map[string]any{
						"addr":  fmt.Sprintf("%#x", ev.Addr),
						"beats": ev.Beats,
						"prio":  ev.Prio,
					},
				})
				tx := retByCycle[ev.IssueCycle]
				if tx == nil || lat <= 0 {
					continue
				}
				// Phase sub-slices, shifted so the first starts exactly at
				// the parent's Ts (the record's axis begins one initiator
				// period after the issue cycle's timestamp); the segments
				// telescope, so they tile the parent without gaps. The
				// stable sort below keeps the parent (appended first) ahead
				// of its equal-Ts first child, which the viewers require
				// for nesting.
				for k := 0; k < tx.N; k++ {
					segStart := tx.Starts[k]
					segEnd := tx.EndPS
					if k+1 < tx.N {
						segEnd = tx.Starts[k+1]
					}
					if segEnd <= segStart {
						continue
					}
					body = append(body, chromeEvent{
						Name: tx.Phases[k].String(),
						Ph:   "X",
						Ts:   psToUS(parentTS + (segStart - tx.StartPS)),
						Dur:  psToUS(segEnd - segStart),
						Pid:  chromePidInitiators,
						Tid:  tid,
					})
				}
			}
		}
	}
	for _, rec := range recs {
		for _, g := range rec.Gauges {
			body = append(body, chromeEvent{
				Name: g.Name,
				Ph:   "C",
				Ts:   psToUS(rec.TimePS),
				Pid:  chromePidCounters,
				Tid:  0,
				Args: map[string]any{"value": g.Value},
			})
		}
	}
	sort.SliceStable(body, func(i, j int) bool { return body[i].Ts < body[j].Ts })
	events = append(events, body...)

	out := struct {
		DisplayTimeUnit string        `json:"displayTimeUnit"`
		TraceEvents     []chromeEvent `json:"traceEvents"`
	}{DisplayTimeUnit: "ms", TraceEvents: events}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
