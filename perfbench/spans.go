package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// span is one timed interval of a traced run: the workload, one job, or one
// public call inside a job.
type span struct {
	name string
	// job is the id of the job the span belongs to, -1 for the workload.
	job int
	// parent indexes the enclosing span in the same list, -1 for a root.
	parent     int
	start, end time.Duration
}

// tracer keeps a traced run's spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer(workload string) *tracer {
	t := &tracer{epoch: time.Now()}
	t.spans = append(t.spans, span{name: workload, job: -1, parent: -1})
	return t
}

// addJob records a finished job and its calls under the workload span.
func (t *tracer) addJob(j *job) {
	parent := len(t.spans)
	t.spans = append(t.spans, span{name: "job", job: j.id, parent: 0, start: j.start.Sub(t.epoch), end: j.end.Sub(t.epoch)})
	for _, c := range j.calls {
		t.spans = append(t.spans, span{name: c.name, job: j.id, parent: parent, start: c.start.Sub(t.epoch), end: c.end.Sub(t.epoch)})
	}
}

// finish closes the workload span.
func (t *tracer) finish() { t.spans[0].end = time.Since(t.epoch) }

// selfTimes returns each span's self time: its duration minus the part of its
// interval that its child spans cover. Overlapping children count once.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		var covered time.Duration
		at := s.start
		for _, k := range kids {
			lo, hi := max(spans[k].start, at), min(spans[k].end, s.end)
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// layerRow is one line of the per-layer self-time table.
type layerRow struct {
	name        string
	callsPerJob float64
	selfPerJob  time.Duration
	// share is the layer's self time over the jobs' total wall time.
	share float64
}

// layerTable sums self time by span name over every job subtree; the "job"
// row is the harness's own time between calls. Because self times partition
// each job's interval, the shares add up to 1.
func layerTable(spans []span) []layerRow {
	self := selfTimes(spans)
	type total struct {
		calls int
		self  time.Duration
	}
	byName := map[string]*total{}
	var jobs int
	var wall time.Duration
	for i, s := range spans {
		if s.job < 0 {
			continue
		}
		if s.name == "job" {
			jobs++
			wall += s.end - s.start
		}
		t := byName[s.name]
		if t == nil {
			t = &total{}
			byName[s.name] = t
		}
		t.calls++
		t.self += self[i]
	}
	rows := make([]layerRow, 0, len(byName))
	for name, t := range byName {
		rows = append(rows, layerRow{
			name:        name,
			callsPerJob: float64(t.calls) / float64(jobs),
			selfPerJob:  t.self / time.Duration(jobs),
			share:       float64(t.self) / float64(wall),
		})
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].share > rows[b].share })
	return rows
}

// writeLayerTable prints the table and returns the sum of its shares.
func writeLayerTable(w io.Writer, rows []layerRow) float64 {
	fmt.Fprintf(w, "%-28s %10s %14s %8s\n", "layer", "calls/job", "self_s/job", "share")
	var sum float64
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %10.1f %14.6f %7.2f%%\n", r.name, r.callsPerJob, r.selfPerJob.Seconds(), 100*r.share)
		sum += r.share
	}
	return sum
}

// writeChromeTrace renders the spans as Chrome trace-event JSON, loadable in
// chrome://tracing or Perfetto.
func writeChromeTrace(w io.Writer, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{
			Name: s.name, Ph: "X", PID: 1, TID: 1,
			TS:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64((s.end - s.start).Nanoseconds()) / 1e3,
			Args: map[string]int{"job": s.job, "parent": s.parent},
		}
	}
	return json.NewEncoder(w).Encode(struct {
		TraceEvents []event `json:"traceEvents"`
	}{events})
}
