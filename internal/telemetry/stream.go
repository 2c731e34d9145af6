package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"
)

// Encoding selects how a Streamer writes records.
type Encoding int

const (
	// NDJSON writes one JSON Record per line (schema mpsocsim.telemetry/1).
	NDJSON Encoding = iota
	// CSV writes the header cycle,time_ps,issued,completed followed by
	// every gauge name in registration order, then one row per record.
	CSV
	// VCD writes a Value Change Dump with a 1 ps timescale: one 64-bit
	// integer variable per CSV column after time_ps, and for each record a
	// #time_ps stamp followed by the values that changed (all of them at
	// the first record).
	VCD
)

// Streamer drains a collector into one output encoding, in sequence order.
// It runs on its own goroutine (woken by the collector's notify channel), so
// encoding — which allocates — never lands on the simulation hot path. The
// output is fully deterministic: byte-identical for every run of the same
// spec and cadence.
type Streamer struct {
	col  *Collector
	w    *bufio.Writer
	enc  Encoding
	json *json.Encoder

	stop chan struct{}
	wg   sync.WaitGroup

	mu      sync.Mutex
	cursor  int64
	skipped int64
	written int64
	err     error

	// Waveform buffers, reused across records: the CSV/VCD line, the
	// current record's columns and the VCD variables' last dumped values.
	line []byte
	vals []int64
	prev []int64
}

// NewStreamer wraps w; the caller retains ownership of the underlying file
// and closes it after Close returns.
func NewStreamer(w io.Writer, col *Collector, enc Encoding) *Streamer {
	bw := bufio.NewWriterSize(w, 1<<16)
	return &Streamer{col: col, w: bw, enc: enc, json: json.NewEncoder(bw), stop: make(chan struct{})}
}

// Start launches the drain goroutine. Call once, before the run.
func (s *Streamer) Start() {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			select {
			case <-s.col.Notify():
				s.drain()
			case <-s.stop:
				return
			}
		}
	}()
}

// drain writes every undrained record.
func (s *Streamer) drain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	recs, next := s.col.Drain(s.cursor)
	if len(recs) > 0 && recs[0].Seq > s.cursor {
		s.skipped += recs[0].Seq - s.cursor
	}
	s.cursor = next
	for i := range recs {
		var err error
		switch s.enc {
		case CSV:
			err = s.writeCSV(&recs[i])
		case VCD:
			err = s.writeVCD(&recs[i])
		default:
			err = s.json.Encode(&recs[i])
		}
		if err != nil {
			s.err = err
			return
		}
		s.written++
	}
}

// waveformValues returns the record's waveform columns after time_ps:
// issued, completed, then every gauge in registration order.
func waveformValues(rec *Record, dst []int64) []int64 {
	dst = append(dst[:0], rec.Issued, rec.Completed)
	for _, g := range rec.Gauges {
		dst = append(dst, g.Value)
	}
	return dst
}

// waveformNames returns the names of waveformValues' columns.
func waveformNames(rec *Record) []string {
	names := []string{"issued", "completed"}
	for _, g := range rec.Gauges {
		names = append(names, g.Name)
	}
	return names
}

// writeCSV writes one CSV row, preceded by the header at the first record.
func (s *Streamer) writeCSV(rec *Record) error {
	b := s.line[:0]
	if s.written == 0 {
		b = append(b, "cycle,time_ps"...)
		for _, n := range waveformNames(rec) {
			b = append(append(b, ','), n...)
		}
		b = append(b, '\n')
	}
	b = strconv.AppendInt(b, rec.Cycle, 10)
	b = strconv.AppendInt(append(b, ','), rec.TimePS, 10)
	s.vals = waveformValues(rec, s.vals)
	for _, v := range s.vals {
		b = strconv.AppendInt(append(b, ','), v, 10)
	}
	s.line = append(b, '\n')
	_, err := s.w.Write(s.line)
	return err
}

// writeVCD writes one record's time stamp and value changes, preceded by
// the declarations at the first record.
func (s *Streamer) writeVCD(rec *Record) error {
	first := s.written == 0
	b := s.line[:0]
	if first {
		b = append(b, "$timescale 1ps $end\n$scope module mpsocsim $end\n"...)
		for i, n := range waveformNames(rec) {
			b = fmt.Appendf(b, "$var integer 64 %s %s $end\n", vcdID(i), n)
		}
		b = append(b, "$upscope $end\n$enddefinitions $end\n"...)
	}
	b = append(strconv.AppendInt(append(b, '#'), rec.TimePS, 10), '\n')
	s.vals = waveformValues(rec, s.vals)
	for i, v := range s.vals {
		if !first && s.prev[i] == v {
			continue
		}
		// A 64-bit integer variable dumps its two's-complement bits.
		b = strconv.AppendUint(append(b, 'b'), uint64(v), 2)
		b = append(append(append(b, ' '), vcdID(i)...), '\n')
	}
	s.prev = append(s.prev[:0], s.vals...)
	s.line = b
	_, err := s.w.Write(b)
	return err
}

// vcdID returns a short printable VCD identifier for variable index i.
func vcdID(i int) string {
	const alphabet = "!\"#$%&'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ"
	if i < len(alphabet) {
		return string(alphabet[i])
	}
	return string(alphabet[i%len(alphabet)]) + vcdID(i/len(alphabet)-1)
}

// Close stops the goroutine, drains any remaining records, flushes, and
// returns the first write error.
func (s *Streamer) Close() error {
	close(s.stop)
	s.wg.Wait()
	s.drain()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.w.Flush(); err != nil && s.err == nil {
		s.err = err
	}
	return s.err
}

// Written returns the number of records written so far.
func (s *Streamer) Written() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.written
}

// Skipped returns the number of records lost to ring overflow before the
// streamer could drain them (0 in any healthy configuration — the ring
// holds DefaultRingCap snapshots and the streamer wakes on every one).
func (s *Streamer) Skipped() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.skipped
}
