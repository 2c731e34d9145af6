package telemetry

import (
	"encoding/json"
	"strings"
	"testing"

	"mpsocsim/internal/metrics"
)

func teleLine(t *testing.T, seq, cycle int64) string {
	t.Helper()
	rec := Record{
		Schema: Schema, Seq: seq, Cycle: cycle, TimePS: cycle * 4000,
		Issued: 10 * seq, Completed: 9 * seq,
		Initiators: []InitiatorRecord{{Name: "arm1", Issued: 5 * seq, Completed: 5 * seq}},
		Counters:   []metrics.CounterValue{{Name: "fab.grants", Value: 7 * seq}},
		Gauges:     []metrics.GaugeValue{{Name: "fab.fifo", Clock: "central", Value: seq % 3}},
	}
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(b)
}

func TestReadStreamParsesFullStream(t *testing.T) {
	text := teleLine(t, 0, 100) + "\n" + teleLine(t, 1, 200) + "\n" + teleLine(t, 2, 300) + "\n"
	s, err := ReadStream(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ReadStream: %v", err)
	}
	if s.Truncated() {
		t.Fatalf("fully written stream reported truncated")
	}
	if len(s.Records) != 3 {
		t.Fatalf("got %d records, want 3", len(s.Records))
	}
	for i, rec := range s.Records {
		if rec.Seq != int64(i) {
			t.Fatalf("record %d has seq %d", i, rec.Seq)
		}
	}
	if s.Records[2].Cycle != 300 {
		t.Fatalf("last record cycle = %d, want 300", s.Records[2].Cycle)
	}
}

// A crash-interrupted run leaves its final record cut mid-line with no
// trailing newline. The reader must keep every complete record and report
// the damage through Truncated() instead of erroring.
func TestReadStreamToleratesTruncatedFinalLine(t *testing.T) {
	full := teleLine(t, 0, 100) + "\n" + teleLine(t, 1, 200) + "\n"
	cut := teleLine(t, 2, 300)
	cut = cut[:len(cut)/2] // mid-record cut, no newline
	s, err := ReadStream(strings.NewReader(full + cut))
	if err != nil {
		t.Fatalf("ReadStream on truncated stream: %v", err)
	}
	if !s.Truncated() {
		t.Fatalf("truncated stream not reported as truncated")
	}
	if len(s.Records) != 2 {
		t.Fatalf("got %d records before the cut, want 2", len(s.Records))
	}
}

// A malformed line in the middle of the stream is not a truncation — the
// writer terminates every record it finishes, so mid-stream damage means
// the file is not a telemetry stream at all.
func TestReadStreamRejectsMidStreamGarbage(t *testing.T) {
	text := teleLine(t, 0, 100) + "\n{\"schema\": \"mpsocsim.telem" + "\n" + teleLine(t, 2, 300) + "\n"
	if _, err := ReadStream(strings.NewReader(text)); err == nil {
		t.Fatalf("mid-stream garbage accepted")
	}
}

func TestReadStreamRejectsForeignSchema(t *testing.T) {
	text := `{"schema":"mpsocsim.report/2","seq":0}` + "\n"
	if _, err := ReadStream(strings.NewReader(text)); err == nil {
		t.Fatalf("foreign schema accepted")
	}
}
