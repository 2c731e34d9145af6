package diff

import (
	"bytes"
	"testing"

	"mpsocsim/internal/telemetry"
)

// FuzzReports drives the report/2 reader behind `mpsocsim diff` with two
// arbitrary documents. The reader must never panic; any two documents it
// accepts must diff, and the diff must render, byte-identically twice. The
// seed corpus under testdata/fuzz/FuzzReports holds a real scale-0.05 run
// report, the same report with its run figures perturbed, and a document
// of the wrong schema.
func FuzzReports(f *testing.F) {
	f.Fuzz(func(t *testing.T, a, b []byte) {
		ra, err := ReadReport(bytes.NewReader(a))
		if err != nil {
			return
		}
		rb, err := ReadReport(bytes.NewReader(b))
		if err != nil {
			return
		}
		var w1, w2 bytes.Buffer
		if err := Reports(ra, rb, "a", "b").WriteJSON(&w1); err != nil {
			t.Fatalf("accepted reports do not render: %v", err)
		}
		if err := Reports(ra, rb, "a", "b").WriteJSON(&w2); err != nil || !bytes.Equal(w1.Bytes(), w2.Bytes()) {
			t.Fatalf("report diff not byte-identical across invocations (err %v)", err)
		}
	})
}

// FuzzStreams drives telemetry.ReadStream, the NDJSON reader behind
// `mpsocsim diff` and -diff-stream, with two arbitrary streams. It must
// never panic; any two streams it accepts must diff, and the diff must
// render. The seed corpus under testdata/fuzz/FuzzStreams holds a real
// scale-0.05 telemetry stream, a copy cut mid-record, and a stream of the
// wrong schema.
func FuzzStreams(f *testing.F) {
	f.Fuzz(func(t *testing.T, a, b []byte) {
		sa, err := telemetry.ReadStream(bytes.NewReader(a))
		if err != nil {
			return
		}
		sb, err := telemetry.ReadStream(bytes.NewReader(b))
		if err != nil {
			return
		}
		var w bytes.Buffer
		if err := Streams(sa, sb, "a", "b").WriteJSON(&w); err != nil {
			t.Fatalf("accepted streams do not render: %v", err)
		}
	})
}
