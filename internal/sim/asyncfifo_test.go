package sim

import "testing"

// buildCDC creates writer/reader clocks and an async FIFO between them.
func buildCDC(t *testing.T, wMHz, rMHz float64, sync int) (*Kernel, *Clock, *Clock, *AsyncFifo[int]) {
	t.Helper()
	k := NewKernel()
	w := k.NewClock("w", wMHz)
	r := k.NewClock("r", rMHz)
	f := NewAsyncFifo[int]("cdc", 8, sync, r)
	return k, w, r, f
}

func TestAsyncFifoSyncLatency(t *testing.T) {
	k, w, r, f := buildCDC(t, 100, 100, 2)
	var popped []int
	var pushCycle, popCycle int64 = -1, -1

	w.Register(&ClockedFunc{
		OnEval: func() {
			if w.Cycles() == 0 && f.CanPush() {
				f.Push(42)
				pushCycle = w.Cycles()
			}
		},
		OnUpdate: f.WriterUpdate,
	})
	r.Register(&ClockedFunc{
		OnEval: func() {
			if f.CanPop() && popCycle < 0 {
				popped = append(popped, f.Pop())
				popCycle = r.Cycles()
			}
		},
		OnUpdate: f.ReaderUpdate,
	})
	k.RunCycles(r, 10)
	if len(popped) != 1 || popped[0] != 42 {
		t.Fatalf("popped %v, want [42]", popped)
	}
	if popCycle-pushCycle < 2 {
		t.Fatalf("pop at reader cycle %d, push at writer cycle %d: sync latency < 2", popCycle, pushCycle)
	}
}

func TestAsyncFifoZeroSyncStillOneCycle(t *testing.T) {
	// Even with syncCycles=0, two-phase commit means the entry is visible
	// no earlier than the reader edge after the writer commit.
	k, w, r, f := buildCDC(t, 100, 100, 0)
	seen := int64(-1)
	w.Register(&ClockedFunc{
		OnEval: func() {
			if w.Cycles() == 0 {
				f.Push(7)
			}
		},
		OnUpdate: f.WriterUpdate,
	})
	r.Register(&ClockedFunc{
		OnEval: func() {
			if f.CanPop() && seen < 0 {
				f.Pop()
				seen = r.Cycles()
			}
		},
		OnUpdate: f.ReaderUpdate,
	})
	k.RunCycles(r, 5)
	if seen < 1 {
		t.Fatalf("entry visible at reader cycle %d, want >= 1", seen)
	}
}

func TestAsyncFifoCrossFrequency(t *testing.T) {
	// Fast writer (400 MHz) into slow reader (100 MHz): all entries must
	// arrive, in order, and never overflow given backpressure.
	k := NewKernel()
	w := k.NewClock("w", 400)
	r := k.NewClock("r", 100)
	f := NewAsyncFifo[int]("cdc", 4, 2, r)
	sent, recv := 0, 0
	var got []int
	const total = 50
	w.Register(&ClockedFunc{
		OnEval: func() {
			if sent < total && f.CanPush() {
				f.Push(sent)
				sent++
			}
		},
		OnUpdate: f.WriterUpdate,
	})
	r.Register(&ClockedFunc{
		OnEval: func() {
			if f.CanPop() {
				got = append(got, f.Pop())
				recv++
			}
		},
		OnUpdate: f.ReaderUpdate,
	})
	k.RunWhile(func() bool { return recv < total }, 1e9)
	if recv != total {
		t.Fatalf("received %d, want %d", recv, total)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d, want %d (order violated)", i, v, i)
		}
	}
}

func TestAsyncFifoBackpressure(t *testing.T) {
	k := NewKernel()
	w := k.NewClock("w", 400)
	r := k.NewClock("r", 100)
	f := NewAsyncFifo[int]("cdc", 2, 2, r)
	rejected := false
	w.Register(&ClockedFunc{
		OnEval: func() {
			if f.CanPush() {
				f.Push(1)
			} else {
				rejected = true
			}
		},
		OnUpdate: f.WriterUpdate,
	})
	// reader never pops
	r.Register(&ClockedFunc{OnUpdate: f.ReaderUpdate})
	k.RunCycles(w, 20)
	if !rejected {
		t.Fatal("writer should see backpressure from full CDC fifo")
	}
	if f.Len() != 2 {
		t.Fatalf("len = %d, want 2 (never exceed depth)", f.Len())
	}
}

// TestAsyncFifoSPSCStress enforces the single-producer/single-consumer
// contract documented on AsyncFifo: the writer side and the reader side may
// live on different goroutines only under strict alternation with
// happens-before handoffs. This test runs each side on its own goroutine with
// a channel token ping-pong — the legal pattern — and must stay clean under
// the race detector; note that WriterUpdate reads the reader clock's cycle
// counter, so dropping the handoff (running the sides concurrently) is a
// data race by construction.
func TestAsyncFifoSPSCStress(t *testing.T) {
	iters := 50000
	if testing.Short() {
		iters = 5000
	}

	k := NewKernel()
	r := k.NewClock("r", 100)
	f := NewAsyncFifo[int]("cdc", 8, 2, r)

	var got []int
	r.Register(&ClockedFunc{
		OnEval: func() {
			for f.CanPop() {
				got = append(got, f.Pop())
			}
		},
		OnUpdate: f.ReaderUpdate,
	})

	toWriter := make(chan struct{})
	toReader := make(chan struct{})
	done := make(chan int)

	go func() { // writer side: Push / CanPush / WriterUpdate only
		next := 0
		for range toWriter {
			if next%3 != 2 && f.CanPush() {
				f.Push(next)
				next++
			}
			f.WriterUpdate()
			toReader <- struct{}{}
		}
		done <- next
	}()
	go func() { // reader side: steps the reader clock (Pop / ReaderUpdate)
		for range toReader {
			k.RunCycles(r, 1)
			toWriter <- struct{}{}
		}
		close(done)
	}()

	toWriter <- struct{}{}
	var pushed int
	for i := 0; i < iters; i++ {
		<-toWriter
		if i == iters-1 {
			close(toWriter)
			pushed = <-done
			close(toReader)
			<-done
		} else {
			toWriter <- struct{}{}
		}
	}

	if pushed == 0 {
		t.Fatal("writer pushed nothing")
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("entry %d crossed the CDC out of order (got %d)", i, v)
		}
	}
	if len(got) < pushed-f.Depth() {
		t.Fatalf("only %d of %d pushed entries crossed", len(got), pushed)
	}
}
