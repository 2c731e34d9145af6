package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
)

// Streamer drains a collector into an NDJSON stream: one Record per line,
// schema mpsocsim.telemetry/1, in sequence order. It runs on its own
// goroutine (woken by the collector's notify channel), so JSON encoding —
// which allocates — never lands on the simulation hot path. The stream is
// fully deterministic: byte-identical for every run of the same spec and
// cadence.
type Streamer struct {
	col *Collector
	w   *bufio.Writer

	stop chan struct{}
	wg   sync.WaitGroup

	mu      sync.Mutex
	cursor  int64
	skipped int64
	written int64
	err     error
}

// NewStreamer wraps w; the caller retains ownership of the underlying file
// and closes it after Close returns.
func NewStreamer(w io.Writer, col *Collector) *Streamer {
	return &Streamer{col: col, w: bufio.NewWriterSize(w, 1<<16), stop: make(chan struct{})}
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
	enc := json.NewEncoder(s.w)
	for i := range recs {
		if err := enc.Encode(&recs[i]); err != nil {
			s.err = err
			return
		}
		s.written++
	}
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
