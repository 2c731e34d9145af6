package telemetry

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"mpsocsim/internal/metrics"
)

// ProgressSchema identifies the live progress document's layout.
const ProgressSchema = "mpsocsim.progress/1"

// Progress is the live run-progress document served at /progress. Unlike
// telemetry Records it is explicitly wall-clock dependent: rates and ETA are
// derived from the wall-time offsets of the last two snapshots and change
// from request to request.
type Progress struct {
	Schema string `json:"schema"`
	Done   bool   `json:"done"`
	Cycle  int64  `json:"cycle"`
	TimePS int64  `json:"time_ps"`

	BudgetPS   int64   `json:"budget_ps,omitempty"`
	BudgetFrac float64 `json:"budget_frac,omitempty"`
	WallMS     float64 `json:"wall_ms"`
	// CyclesPerSec is the wall-clock simulation rate over the last snapshot
	// interval (whole-run mean when only one snapshot exists).
	CyclesPerSec float64 `json:"cycles_per_sec"`
	// ETAMS is the projected wall milliseconds until the simulated-time
	// budget is exhausted — an upper bound, since most runs drain earlier.
	ETAMS float64 `json:"eta_ms,omitempty"`

	Initiators []InitiatorRecord `json:"initiators"`
	// CounterRatesPerSec holds the per-wall-second delta of every counter
	// that moved between the last two snapshots.
	CounterRatesPerSec []metrics.CounterValue `json:"counter_rates_per_sec,omitempty"`
}

// Server serves one collector's live surfaces:
//
//	/metrics   Prometheus text exposition of the latest snapshot
//	/events    SSE stream of telemetry records (data: one Record JSON each)
//	/progress  the JSON Progress document
//	/          a small text index
type Server struct {
	col *Collector
}

// NewServer wraps a collector.
func NewServer(col *Collector) *Server { return &Server{col: col} }

// Handler returns the route mux. Mount it on any listener:
//
//	ln, _ := net.Listen("tcp", addr)
//	go http.Serve(ln, srv.Handler())
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.index)
	mux.HandleFunc("/metrics", s.metrics)
	mux.HandleFunc("/events", s.events)
	mux.HandleFunc("/progress", s.progress)
	return mux
}

func (s *Server) index(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "mpsocsim live telemetry (%s)\n\n/metrics   Prometheus text exposition\n/events    SSE record stream\n/progress  JSON progress document\n", Schema)
}

// promName rewrites an instrument name into the Prometheus label-value form
// (instrument names become label values, not metric names, so dots and
// arbitrary characters never produce an unparsable exposition).
func promEscape(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func (s *Server) metrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	rec, ok := s.col.Latest()
	if !ok {
		fmt.Fprint(w, "# no snapshot collected yet\n")
		return
	}
	fmt.Fprint(w, "# HELP mpsocsim_sim_cycle Central-clock cycles completed.\n# TYPE mpsocsim_sim_cycle gauge\n")
	fmt.Fprintf(w, "mpsocsim_sim_cycle %d\n", rec.Cycle)
	fmt.Fprint(w, "# HELP mpsocsim_sim_time_ps Simulated time in picoseconds.\n# TYPE mpsocsim_sim_time_ps gauge\n")
	fmt.Fprintf(w, "mpsocsim_sim_time_ps %d\n", rec.TimePS)
	fmt.Fprint(w, "# HELP mpsocsim_issued_total Transactions issued across all initiators.\n# TYPE mpsocsim_issued_total counter\n")
	fmt.Fprintf(w, "mpsocsim_issued_total %d\n", rec.Issued)
	fmt.Fprint(w, "# HELP mpsocsim_completed_total Transactions completed across all initiators.\n# TYPE mpsocsim_completed_total counter\n")
	fmt.Fprintf(w, "mpsocsim_completed_total %d\n", rec.Completed)
	fmt.Fprint(w, "# HELP mpsocsim_initiator_outstanding In-flight transactions per initiator.\n# TYPE mpsocsim_initiator_outstanding gauge\n")
	for _, in := range rec.Initiators {
		fmt.Fprintf(w, "mpsocsim_initiator_outstanding{initiator=%q} %d\n", promEscape(in.Name), in.Outstanding)
	}
	fmt.Fprint(w, "# HELP mpsocsim_counter Registry counters, keyed by instrument name.\n# TYPE mpsocsim_counter counter\n")
	for _, c := range rec.Counters {
		fmt.Fprintf(w, "mpsocsim_counter{name=%q} %d\n", promEscape(c.Name), c.Value)
	}
	fmt.Fprint(w, "# HELP mpsocsim_gauge Registry gauges, keyed by instrument name and clock domain.\n# TYPE mpsocsim_gauge gauge\n")
	for _, g := range rec.Gauges {
		fmt.Fprintf(w, "mpsocsim_gauge{name=%q,clock=%q} %d\n", promEscape(g.Name), promEscape(g.Clock), g.Value)
	}
}

func (s *Server) events(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	// Start from the oldest surviving record; poll for new ones. The ring
	// is drained by sequence cursor, so concurrent SSE clients each get the
	// full surviving stream independently.
	var cursor int64
	tick := time.NewTicker(200 * time.Millisecond)
	defer tick.Stop()
	enc := json.NewEncoder(w)
	for {
		recs, next := s.col.Drain(cursor)
		cursor = next
		for i := range recs {
			fmt.Fprint(w, "data: ")
			if err := enc.Encode(&recs[i]); err != nil {
				return
			}
			fmt.Fprint(w, "\n")
		}
		if len(recs) > 0 {
			fl.Flush()
		}
		if s.col.Done() && cursor >= s.col.Seq() {
			fmt.Fprint(w, "event: done\ndata: {}\n\n")
			fl.Flush()
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-tick.C:
		}
	}
}

// buildProgress derives the progress document from the collector's newest
// snapshots. Shared by the single-run server and tests.
func buildProgress(col *Collector) Progress {
	budgetPS, done, wall := col.status()
	p := Progress{
		Schema: ProgressSchema,
		Done:   done,
		WallMS: float64(wall.Nanoseconds()) / 1e6,
	}
	last, prev, n := col.latestPair()
	if n == 0 {
		return p
	}
	p.Cycle = last.Cycle
	p.TimePS = last.TimePS
	p.Initiators = last.Initiators
	if budgetPS > 0 {
		p.BudgetPS = budgetPS
		p.BudgetFrac = float64(last.TimePS) / float64(budgetPS)
	}
	// Rates over the last snapshot interval; whole-run mean with a single
	// snapshot.
	refCycle, refPS, refWallNS := int64(0), int64(0), int64(0)
	if n >= 2 {
		refCycle, refPS, refWallNS = prev.Cycle, prev.TimePS, prev.WallNS
	}
	dWallSec := float64(last.WallNS-refWallNS) / 1e9
	if dWallSec > 0 {
		p.CyclesPerSec = float64(last.Cycle-refCycle) / dWallSec
		psPerSec := float64(last.TimePS-refPS) / dWallSec
		if budgetPS > 0 && psPerSec > 0 && !done {
			p.ETAMS = float64(budgetPS-last.TimePS) / psPerSec * 1e3
		}
		if n >= 2 {
			for _, d := range metrics.DiffCounters(last.Counters, prev.Counters) {
				d.Value = int64(float64(d.Value) / dWallSec)
				if d.Value != 0 {
					p.CounterRatesPerSec = append(p.CounterRatesPerSec, d)
				}
			}
		}
	}
	return p
}

func (s *Server) progress(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(buildProgress(s.col))
}
