package sim

import "testing"

// The ring storage must stay correct once head has wrapped past the end of
// the backing array — every slot is reused many times over.
func TestFifoRingWrapAround(t *testing.T) {
	f := NewFifo[int]("w", 3)
	next, want := 0, 0
	for cycle := 0; cycle < 50; cycle++ {
		if f.CanPush() {
			f.Push(next)
			next++
		}
		if f.CanPop() {
			if got := f.Pop(); got != want {
				t.Fatalf("cycle %d: pop = %d, want %d", cycle, got, want)
			}
			want++
		}
		f.Update()
	}
	if want == 0 {
		t.Fatal("test never popped")
	}
}

// RemoveAt with i > 0 in the same cycle as a Pop and a Push — the LMI
// lookahead pattern: the optimizer pops or removes one matured command per
// cycle while the bus interface stages a newly arrived one.
func TestFifoRemoveAtInterleavedSameCycle(t *testing.T) {
	f := NewFifo[int]("lmi", 4)
	for _, v := range []int{10, 11, 12} {
		f.Push(v)
	}
	f.Update()

	// Cycle: pop the head, remove what is now the second remaining entry
	// (logical index 1 past the staged pop), and push a newcomer.
	if got := f.Pop(); got != 10 {
		t.Fatalf("pop = %d, want 10", got)
	}
	if got := f.RemoveAt(1); got != 12 {
		t.Fatalf("RemoveAt(1) = %d, want 12", got)
	}
	if !f.CanPush() {
		t.Fatal("slot freed by RemoveAt must be reusable this cycle")
	}
	f.Push(13)
	f.Update()

	for i, w := range []int{11, 13} {
		if got := f.Pop(); got != w {
			t.Fatalf("pop #%d = %d, want %d", i, got, w)
		}
	}
	f.Update()
	if f.CanPop() {
		t.Fatal("fifo should be empty")
	}
}

// RemoveAt must also shift entries staged (pushed) this same cycle so the
// staged region stays contiguous with the committed one.
func TestFifoRemoveAtWithStagedPush(t *testing.T) {
	f := NewFifo[int]("s", 4)
	f.Push(1)
	f.Push(2)
	f.Push(3)
	f.Update()

	f.Push(4) // staged
	if got := f.RemoveAt(1); got != 2 {
		t.Fatalf("RemoveAt(1) = %d, want 2", got)
	}
	f.Update()

	for i, w := range []int{1, 3, 4} {
		if got := f.Pop(); got != w {
			t.Fatalf("pop #%d = %d, want %d", i, got, w)
		}
	}
}

// Entries that leave the FIFO must drop their references so the GC can
// collect them: popped slots are zeroed at Update, removed slots immediately.
func TestFifoReleasesReferences(t *testing.T) {
	f := NewFifo[*int]("gc", 4)
	vals := make([]*int, 3)
	for i := range vals {
		vals[i] = new(int)
		f.Push(vals[i])
	}
	f.Update()

	f.RemoveAt(1)
	f.Pop()
	f.Update()

	live := map[*int]bool{vals[2]: true} // the only entry still queued
	held := 0
	for _, p := range f.buf {
		if p != nil {
			if !live[p] {
				t.Fatalf("fifo retains reference to departed entry %p", p)
			}
			held++
		}
	}
	if held != 1 {
		t.Fatalf("fifo holds %d references, want 1", held)
	}
}

// Reset must return the FIFO to its freshly constructed state while keeping
// the preallocated ring, so a reset FIFO is immediately reusable.
func TestFifoReuseAfterReset(t *testing.T) {
	f := NewFifo[int]("r", 3)
	// Dirty every slot and wrap the head.
	for cycle := 0; cycle < 7; cycle++ {
		if f.CanPush() {
			f.Push(cycle)
		}
		if f.CanPop() {
			f.Pop()
		}
		f.Update()
	}
	f.Push(99) // leave a staged push dangling across the reset

	f.Reset()
	if f.Len() != 0 || f.Staged() != 0 || f.CanPop() {
		t.Fatal("reset fifo must be empty with nothing staged")
	}

	// Full reuse: same capacity, correct order, no leftovers from before.
	for _, v := range []int{7, 8, 9} {
		f.Push(v)
	}
	if f.CanPush() {
		t.Fatal("depth must be unchanged after reset")
	}
	f.Update()
	for i, w := range []int{7, 8, 9} {
		if got := f.Pop(); got != w {
			t.Fatalf("pop #%d after reset = %d, want %d", i, got, w)
		}
	}
}

// The steady-state FIFO operations must not allocate: the ring is fixed at
// construction and commits are counter bumps.
func TestFifoOpsZeroAlloc(t *testing.T) {
	f := NewFifo[int]("z", 8)
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		if f.CanPush() {
			f.Push(i)
			i++
		}
		if f.CanPush() {
			f.Push(i)
			i++
		}
		if f.CanPop() {
			f.Pop()
		}
		if f.n-f.npop >= 2 { // a second un-popped entry remains: remove it
			f.RemoveAt(1)
		}
		f.Update()
	})
	if allocs != 0 {
		t.Fatalf("fifo ops allocate: %.2f allocs/cycle (want 0)", allocs)
	}
}
