package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// Stream is a parsed NDJSON telemetry stream: the records in file order,
// plus whether the final line was cut mid-record. Produced by ReadStream;
// consumed by the cross-run stream diff (internal/diff).
type Stream struct {
	Records []Record

	truncated bool
}

// Truncated reports whether the stream's final line was an incomplete JSON
// record — the signature of a crash- or kill-interrupted run whose last
// buffered write never finished. Damage confined to the tail is reported,
// not fatal, because every record before the cut is still trustworthy.
func (s *Stream) Truncated() bool { return s.truncated }

// ReadStream parses an NDJSON telemetry stream written by Streamer. Every
// record must carry the mpsocsim.telemetry/1 schema. A malformed line in
// the middle of the stream is an error (the file is not a telemetry
// stream, or worse); a malformed *final* line without a trailing newline
// is tolerated as a truncation and reported through Truncated.
func ReadStream(r io.Reader) (*Stream, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	s := &Stream{}
	for line := 1; ; line++ {
		raw, err := br.ReadBytes('\n')
		if err != nil && err != io.EOF {
			return nil, err
		}
		atEOF := err == io.EOF
		trimmed := bytes.TrimSpace(raw)
		if len(trimmed) > 0 {
			var rec Record
			if jerr := json.Unmarshal(trimmed, &rec); jerr != nil {
				// Only an unterminated final line can be a crash cut:
				// anything the writer finished ends in '\n'.
				if atEOF {
					s.truncated = true
					return s, nil
				}
				return nil, fmt.Errorf("telemetry stream line %d: %w", line, jerr)
			}
			if rec.Schema != Schema {
				return nil, fmt.Errorf("telemetry stream line %d: schema %q, want %q", line, rec.Schema, Schema)
			}
			s.Records = append(s.Records, rec)
		}
		if atEOF {
			return s, nil
		}
	}
}
