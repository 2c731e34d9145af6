package telemetry

import (
	"fmt"
	"io"
	"sort"

	"mpsocsim/internal/metrics"
	"mpsocsim/internal/stats"
)

// FifoFill is one FIFO's occupancy row of a stall report.
type FifoFill struct {
	Name  string  `json:"name"`
	Len   int     `json:"len"`
	Depth int     `json:"depth"`
	Fill  float64 `json:"fill"`
}

// InitiatorHealth is one initiator's row: cumulative counts, in-flight
// occupancy and the oldest outstanding transaction's identity and age.
type InitiatorHealth struct {
	Name      string `json:"name"`
	Clock     string `json:"clock"`
	Issued    int64  `json:"issued"`
	Completed int64  `json:"completed"`
	InFlight  int    `json:"in_flight"`
	// OldestID/OldestAgePS identify the longest-outstanding transaction
	// (zero when nothing is in flight).
	OldestID    uint64 `json:"oldest_id,omitempty"`
	OldestAgePS int64  `json:"oldest_age_ps,omitempty"`
	// LastIssueCycle/LastCompleteCycle are in the initiator's own clock
	// domain; -1 means never.
	LastIssueCycle    int64 `json:"last_issue_cycle"`
	LastCompleteCycle int64 `json:"last_complete_cycle"`
}

// DomainHealth is one clock domain's row: how far it ticked and the last
// cycle any of its initiators made progress (-1 when the domain has no
// tracked initiator or none ever moved).
type DomainHealth struct {
	Clock             string `json:"clock"`
	Cycles            int64  `json:"cycles"`
	LastProgressCycle int64  `json:"last_progress_cycle"`
}

// StallReport is the structured run-health dump emitted when the progress
// watchdog fires (exit 2) or the simulated-time budget is blown (exit 3):
// the fullest FIFOs, per-initiator oldest-outstanding ages, per-domain last
// progress and the counters that still moved during the final watchdog
// window (what was alive vs what wedged).
type StallReport struct {
	Reason    string `json:"reason"`
	Cycle     int64  `json:"cycle"`
	TimePS    int64  `json:"time_ps"`
	Issued    int64  `json:"issued"`
	Completed int64  `json:"completed"`

	Fifos      []FifoFill        `json:"fifos"`
	Initiators []InitiatorHealth `json:"initiators"`
	Domains    []DomainHealth    `json:"domains"`
	// Moved lists the registry counters that advanced during the last
	// watchdog observation window, with their deltas.
	Moved []metrics.CounterValue `json:"moved,omitempty"`
	// Observed is set once the watchdog has closed a window; before that
	// Moved is empty for want of a baseline, not because nothing moved.
	// It stays out of the JSON form, which bisect documents embed.
	Observed bool `json:"-"`
}

// SortFifos orders rows fullest-first (name-ascending tie-break) and
// truncates to the top n (n <= 0 keeps everything).
func SortFifos(rows []FifoFill, n int) []FifoFill {
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Fill != rows[j].Fill {
			return rows[i].Fill > rows[j].Fill
		}
		return rows[i].Name < rows[j].Name
	})
	if n > 0 && len(rows) > n {
		rows = rows[:n]
	}
	return rows
}

// Write renders the report as the human-readable stderr dump.
func (r *StallReport) Write(w io.Writer) error {
	fmt.Fprintf(w, "stall report: %s\n", r.Reason)
	fmt.Fprintf(w, "at cycle %d (%.3f ms simulated), issued=%d completed=%d in_flight=%d\n\n",
		r.Cycle, float64(r.TimePS)/1e9, r.Issued, r.Completed, r.Issued-r.Completed)

	fmt.Fprintf(w, "fullest FIFOs (top %d):\n", len(r.Fifos))
	ftbl := stats.NewTable("fifo", "len", "depth", "fill")
	for _, f := range r.Fifos {
		ftbl.AddRow(f.Name, fmt.Sprint(f.Len), fmt.Sprint(f.Depth), fmt.Sprintf("%.0f%%", 100*f.Fill))
	}
	if err := ftbl.Write(w); err != nil {
		return err
	}

	fmt.Fprint(w, "\noldest outstanding per initiator:\n")
	itbl := stats.NewTable("initiator", "clock", "issued", "completed", "in_flight", "oldest_id", "oldest_age_us", "last_issue_cyc", "last_complete_cyc")
	for _, in := range r.Initiators {
		oldest, age := "-", "-"
		if in.InFlight > 0 {
			oldest = fmt.Sprintf("%#x", in.OldestID)
			age = fmt.Sprintf("%.2f", float64(in.OldestAgePS)/1e6)
		}
		itbl.AddRow(in.Name, in.Clock, fmt.Sprint(in.Issued), fmt.Sprint(in.Completed),
			fmt.Sprint(in.InFlight), oldest, age,
			fmt.Sprint(in.LastIssueCycle), fmt.Sprint(in.LastCompleteCycle))
	}
	if err := itbl.Write(w); err != nil {
		return err
	}

	fmt.Fprint(w, "\nlast progress per clock domain:\n")
	dtbl := stats.NewTable("clock", "cycles", "last_progress_cycle", "idle_cycles")
	for _, d := range r.Domains {
		idle := "-"
		if d.LastProgressCycle >= 0 {
			idle = fmt.Sprint(d.Cycles - d.LastProgressCycle)
		}
		dtbl.AddRow(d.Clock, fmt.Sprint(d.Cycles), fmt.Sprint(d.LastProgressCycle), idle)
	}
	if err := dtbl.Write(w); err != nil {
		return err
	}

	switch {
	case len(r.Moved) > 0:
		fmt.Fprint(w, "\ncounters still moving in the last watchdog window:\n")
		mtbl := stats.NewTable("counter", "delta")
		for _, m := range r.Moved {
			mtbl.AddRow(m.Name, fmt.Sprint(m.Value))
		}
		return mtbl.Write(w)
	case !r.Observed:
		fmt.Fprint(w, "\nno watchdog window has closed yet, so no counter movement is known\n")
	default:
		fmt.Fprint(w, "\nno counter moved in the last watchdog window (fully wedged)\n")
	}
	return nil
}
