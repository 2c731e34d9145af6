package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"mpsocsim/internal/metrics"
)

// fakeInit is a scripted InitiatorSource.
type fakeInit struct {
	name              string
	issued, completed int64
}

func (f *fakeInit) Name() string     { return f.name }
func (f *fakeInit) Issued() int64    { return f.issued }
func (f *fakeInit) Completed() int64 { return f.completed }

// testCollector builds a collector over a two-counter/one-gauge registry and
// two fake initiators.
func testCollector(ringCap int) (*Collector, *metrics.Counter, *fakeInit, *fakeInit) {
	reg := metrics.NewRegistry()
	ctr := reg.Counter("grants")
	reg.Counter("stalls")
	reg.GaugeFunc("queue.depth", "central", func() int64 { return 3 })
	a, b := &fakeInit{name: "video"}, &fakeInit{name: "dsp"}
	return NewCollector(reg, []InitiatorSource{a, b}, ringCap), ctr, a, b
}

func TestCollectorDrainOrderAndCursor(t *testing.T) {
	col, ctr, a, _ := testCollector(16)
	for i := int64(1); i <= 3; i++ {
		ctr.Add(10)
		a.issued = i * 2
		a.completed = i
		col.Collect(i*100, i*400_000)
	}
	recs, next := col.Drain(0)
	if len(recs) != 3 || next != 3 {
		t.Fatalf("Drain(0) = %d records, next %d; want 3, 3", len(recs), next)
	}
	for i, r := range recs {
		if r.Seq != int64(i) {
			t.Fatalf("record %d has seq %d", i, r.Seq)
		}
		if r.Schema != Schema {
			t.Fatalf("record %d schema %q", i, r.Schema)
		}
	}
	if recs[2].Cycle != 300 || recs[2].TimePS != 1_200_000 {
		t.Fatalf("last record at cycle %d / %d ps", recs[2].Cycle, recs[2].TimePS)
	}
	if recs[2].Issued != 6 || recs[2].Completed != 3 {
		t.Fatalf("totals issued=%d completed=%d, want 6/3", recs[2].Issued, recs[2].Completed)
	}
	if out := recs[2].Initiators[0].Outstanding; out != 3 {
		t.Fatalf("video outstanding = %d, want 3", out)
	}
	if v, _ := counterValue(recs[2].Counters, "grants"); v != 30 {
		t.Fatalf("grants = %d, want 30", v)
	}
	// Incremental drain from the returned cursor is empty until new data.
	if more, _ := col.Drain(next); len(more) != 0 {
		t.Fatalf("redundant drain returned %d records", len(more))
	}
	col.Collect(400, 1_600_000)
	more, _ := col.Drain(next)
	if len(more) != 1 || more[0].Seq != 3 {
		t.Fatalf("after new snapshot, drain = %d records (seq %d)", len(more), more[0].Seq)
	}
}

func counterValue(vals []metrics.CounterValue, name string) (int64, bool) {
	for _, v := range vals {
		if v.Name == name {
			return v.Value, true
		}
	}
	return 0, false
}

func TestCollectorRingOverwrite(t *testing.T) {
	col, _, _, _ := testCollector(4)
	for i := int64(0); i < 10; i++ {
		col.Collect(i, i)
	}
	if d := col.Dropped(); d != 6 {
		t.Fatalf("Dropped = %d, want 6", d)
	}
	recs, next := col.Drain(0)
	if len(recs) != 4 || next != 10 {
		t.Fatalf("Drain = %d records, next %d; want 4, 10", len(recs), next)
	}
	for i, r := range recs {
		if want := int64(6 + i); r.Seq != want || r.Cycle != want {
			t.Fatalf("survivor %d: seq=%d cycle=%d, want %d", i, r.Seq, r.Cycle, want)
		}
	}
}

func TestCollectorLatestAndStatus(t *testing.T) {
	col, _, _, _ := testCollector(8)
	if _, ok := col.Latest(); ok {
		t.Fatal("Latest on empty collector reported a record")
	}
	col.SetBudgetPS(1_000_000)
	col.Collect(100, 400_000)
	rec, ok := col.Latest()
	if !ok || rec.Cycle != 100 {
		t.Fatalf("Latest = %+v, %v", rec, ok)
	}
	budget, done, _ := col.status()
	if budget != 1_000_000 || done {
		t.Fatalf("status = %d %v", budget, done)
	}
	col.Finish()
	if !col.Done() {
		t.Fatal("Finish did not mark done")
	}
}

func TestCollectorPublishHook(t *testing.T) {
	col, _, _, _ := testCollector(8)
	var gotCycle, gotPS int64
	col.SetPublish(func(cycle, ps int64) { gotCycle, gotPS = cycle, ps })
	col.Collect(7, 28_000)
	if gotCycle != 7 || gotPS != 28_000 {
		t.Fatalf("publish hook saw %d/%d", gotCycle, gotPS)
	}
}

func TestStreamerNDJSON(t *testing.T) {
	col, ctr, _, _ := testCollector(16)
	var buf bytes.Buffer
	s := NewStreamer(&buf, col, NDJSON)
	s.Start()
	for i := int64(0); i < 5; i++ {
		ctr.Inc()
		col.Collect(i*10, i*40_000)
	}
	col.Finish()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Written() != 5 || s.Skipped() != 0 {
		t.Fatalf("written=%d skipped=%d", s.Written(), s.Skipped())
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("%d NDJSON lines, want 5", len(lines))
	}
	for i, line := range lines {
		var rec Record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if rec.Seq != int64(i) || rec.Schema != Schema {
			t.Fatalf("line %d: seq=%d schema=%q", i, rec.Seq, rec.Schema)
		}
		if strings.Contains(line, "WallNS") || strings.Contains(line, "wall") {
			t.Fatalf("line %d leaks wall-clock state: %s", i, line)
		}
	}
}

// TestStreamerCSV pins the CSV encoding: the header names cycle, time_ps,
// issued, completed and every gauge in registration order, then one row per
// record.
func TestStreamerCSV(t *testing.T) {
	col, _, a, _ := testCollector(16)
	var buf bytes.Buffer
	s := NewStreamer(&buf, col, CSV)
	for i := int64(1); i <= 3; i++ {
		a.issued, a.completed = i*2, i
		col.Collect(i*100, i*400_000)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	want := "cycle,time_ps,issued,completed,queue.depth\n" +
		"100,400000,2,1,3\n" +
		"200,800000,4,2,3\n" +
		"300,1200000,6,3,3\n"
	if got := buf.String(); got != want {
		t.Fatalf("CSV =\n%s\nwant\n%s", got, want)
	}
	if s.Written() != 3 || s.Skipped() != 0 {
		t.Fatalf("written=%d skipped=%d", s.Written(), s.Skipped())
	}
}

// TestStreamerVCD pins the VCD encoding: a 1 ps timescale, one 64-bit
// integer variable per CSV column after time_ps, every value at the first
// record and only the changed ones after it.
func TestStreamerVCD(t *testing.T) {
	reg := metrics.NewRegistry()
	var depth int64
	reg.GaugeFunc("fifo", "central", func() int64 { return depth })
	a := &fakeInit{name: "video"}
	col := NewCollector(reg, []InitiatorSource{a}, 16)
	var buf bytes.Buffer
	s := NewStreamer(&buf, col, VCD)
	col.Collect(0, 0)
	a.issued, depth = 2, 3
	col.Collect(1, 4000)
	col.Collect(2, 8000) // nothing changed: a bare time stamp
	a.completed = 2
	col.Collect(3, 12000)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	want := "$timescale 1ps $end\n" +
		"$scope module mpsocsim $end\n" +
		"$var integer 64 ! issued $end\n" +
		"$var integer 64 \" completed $end\n" +
		"$var integer 64 # fifo $end\n" +
		"$upscope $end\n" +
		"$enddefinitions $end\n" +
		"#0\nb0 !\nb0 \"\nb0 #\n" +
		"#4000\nb10 !\nb11 #\n" +
		"#8000\n" +
		"#12000\nb10 \"\n"
	if got := buf.String(); got != want {
		t.Fatalf("VCD =\n%s\nwant\n%s", got, want)
	}
}

// TestStreamerWaveformNoRecords: a run that collected nothing leaves both
// waveform files empty, without a header.
func TestStreamerWaveformNoRecords(t *testing.T) {
	for _, enc := range []Encoding{CSV, VCD} {
		col, _, _, _ := testCollector(16)
		var buf bytes.Buffer
		s := NewStreamer(&buf, col, enc)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if buf.Len() != 0 || s.Written() != 0 {
			t.Fatalf("encoding %d wrote %d bytes, %d records from no records", enc, buf.Len(), s.Written())
		}
	}
}

func TestVCDIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 500; i++ {
		id := vcdID(i)
		if seen[id] {
			t.Fatalf("duplicate VCD id %q at %d", id, i)
		}
		seen[id] = true
	}
}

func TestSortFifos(t *testing.T) {
	rows := []FifoFill{
		{Name: "b", Len: 1, Depth: 4, Fill: 0.25},
		{Name: "a", Len: 2, Depth: 4, Fill: 0.5},
		{Name: "c", Len: 2, Depth: 4, Fill: 0.5},
		{Name: "d", Len: 4, Depth: 4, Fill: 1.0},
	}
	got := SortFifos(rows, 3)
	if len(got) != 3 {
		t.Fatalf("len = %d", len(got))
	}
	if got[0].Name != "d" || got[1].Name != "a" || got[2].Name != "c" {
		t.Fatalf("order = %s %s %s", got[0].Name, got[1].Name, got[2].Name)
	}
}

func TestStallReportRender(t *testing.T) {
	rep := &StallReport{
		Reason: "watchdog", Cycle: 400000, TimePS: 1_600_000_000,
		Issued: 100, Completed: 90,
		Fifos:      []FifoFill{{Name: "video.req", Len: 4, Depth: 4, Fill: 1}},
		Initiators: []InitiatorHealth{{Name: "video", Clock: "cluster0", Issued: 100, Completed: 90, InFlight: 10, OldestID: 7, OldestAgePS: 2_000_000, LastIssueCycle: 300, LastCompleteCycle: 200}},
		Domains:    []DomainHealth{{Clock: "central", Cycles: 400000, LastProgressCycle: -1}},
		Moved:      []metrics.CounterValue{{Name: "dsp.refills", Value: 12}},
	}
	var buf bytes.Buffer
	if err := rep.Write(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"watchdog", "video.req", "100%", "oldest outstanding", "dsp.refills", "in_flight"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}

	rep.Moved = nil
	buf.Reset()
	if err := rep.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if out := buf.String(); strings.Contains(out, "fully wedged") || !strings.Contains(out, "no watchdog window has closed yet") {
		t.Errorf("render before any watchdog window must say so, not call the run wedged:\n%s", out)
	}

	rep.Observed = true
	buf.Reset()
	if err := rep.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "fully wedged") {
		t.Error("render of an observed window without moved counters missing the fully-wedged note")
	}
}
