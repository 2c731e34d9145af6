package sim

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestFifoTwoPhaseVisibility(t *testing.T) {
	f := NewFifo[int]("f", 4)
	if !f.CanPush() {
		t.Fatal("empty fifo must accept push")
	}
	f.Push(1)
	if f.CanPop() {
		t.Fatal("staged push must not be visible before Update")
	}
	f.Update()
	if !f.CanPop() {
		t.Fatal("committed push must be visible after Update")
	}
	if got := f.Pop(); got != 1 {
		t.Fatalf("pop = %d, want 1", got)
	}
	// pop is staged: entry still occupies space until Update
	if f.Len() != 1 {
		t.Fatalf("len = %d before Update, want 1", f.Len())
	}
	f.Update()
	if f.Len() != 0 {
		t.Fatalf("len = %d after Update, want 0", f.Len())
	}
}

func TestFifoBackpressureWithinCycle(t *testing.T) {
	f := NewFifo[int]("f", 2)
	f.Push(1)
	f.Push(2)
	if f.CanPush() {
		t.Fatal("two staged pushes must fill depth-2 fifo within the cycle")
	}
	f.Update()
	if f.CanPush() {
		t.Fatal("full fifo must reject push")
	}
	// concurrent pop does not free space in the same cycle
	f.Pop()
	if f.CanPush() {
		t.Fatal("pop must not free space until Update")
	}
	f.Update()
	if !f.CanPush() {
		t.Fatal("space must free after Update")
	}
}

func TestFifoFIFOOrder(t *testing.T) {
	f := NewFifo[int]("f", 8)
	for i := 0; i < 5; i++ {
		f.Push(i)
	}
	f.Update()
	for i := 0; i < 5; i++ {
		if got := f.Pop(); got != i {
			t.Fatalf("pop #%d = %d, want %d", i, got, i)
		}
	}
}

func TestFifoPeekAtAndRemoveAt(t *testing.T) {
	f := NewFifo[int]("f", 8)
	for i := 10; i < 15; i++ {
		f.Push(i)
	}
	f.Update()
	if got := f.PeekAt(3); got != 13 {
		t.Fatalf("PeekAt(3) = %d, want 13", got)
	}
	if got := f.RemoveAt(2); got != 12 {
		t.Fatalf("RemoveAt(2) = %d, want 12", got)
	}
	f.Update()
	want := []int{10, 11, 13, 14}
	for i, w := range want {
		if got := f.Pop(); got != w {
			t.Fatalf("pop #%d = %d, want %d", i, got, w)
		}
	}
}

func TestFifoRemoveAtZeroIsPop(t *testing.T) {
	f := NewFifo[int]("f", 4)
	f.Push(7)
	f.Push(8)
	f.Update()
	if got := f.RemoveAt(0); got != 7 {
		t.Fatalf("RemoveAt(0) = %d, want 7", got)
	}
	f.Update()
	if got := f.Pop(); got != 8 {
		t.Fatalf("next pop = %d, want 8", got)
	}
}

// TestFifoPanicsOnOverflowAndUnderflow checks that every guarded operation
// panics when misused, with a message that names the FIFO.
func TestFifoPanicsOnOverflowAndUnderflow(t *testing.T) {
	mustPanic := func(what, fifo string, op func()) {
		t.Helper()
		defer func() {
			t.Helper()
			v := recover()
			if v == nil {
				t.Errorf("expected panic on %s", what)
				return
			}
			if msg := fmt.Sprint(v); !strings.Contains(msg, fmt.Sprintf("%q", fifo)) {
				t.Errorf("%s panicked with %q, which does not name fifo %q", what, msg, fifo)
			}
		}()
		op()
	}
	full := NewFifo[int]("full", 1)
	full.Push(1)
	mustPanic("overflow push", "full", func() { full.Push(2) })
	empty := NewFifo[int]("empty", 1)
	mustPanic("empty pop", "empty", func() { empty.Pop() })
	mustPanic("empty peek", "empty", func() { empty.Peek() })
	one := NewFifo[int]("one", 4)
	one.Push(1)
	one.Update()
	mustPanic("peekAt past the end", "one", func() { one.PeekAt(1) })
	mustPanic("peekAt of a negative index", "one", func() { one.PeekAt(-1) })
	mustPanic("removeAt past the end", "one", func() { one.RemoveAt(1) })
	one.Pop()
	mustPanic("peek once the only entry is popped", "one", func() { one.Peek() })
}

func TestFifoReset(t *testing.T) {
	f := NewFifo[int]("f", 4)
	f.Push(1)
	f.Update()
	f.Reset()
	if f.Len() != 0 || f.CanPop() {
		t.Fatal("reset fifo must be empty")
	}
}

// Property: for any sequence of push/pop operations interleaved with
// updates, the FIFO (a) never exceeds its depth, (b) preserves order, and
// (c) pops exactly the pushed values.
func TestFifoPropertyOrderAndBounds(t *testing.T) {
	prop := func(ops []uint8, depth8 uint8) bool {
		depth := int(depth8%7) + 1
		f := NewFifo[int]("p", depth)
		next := 0
		var expect []int
		for _, op := range ops {
			switch op % 3 {
			case 0:
				if f.CanPush() {
					f.Push(next)
					expect = append(expect, next)
					next++
				}
			case 1:
				if f.CanPop() {
					got := f.Pop()
					if len(expect) == 0 || got != expect[0] {
						return false
					}
					expect = expect[1:]
				}
			case 2:
				f.Update()
				if f.Len() > depth {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: occupancy accounting — after all updates, total pushed minus
// total popped equals final length.
func TestFifoPropertyConservation(t *testing.T) {
	prop := func(ops []uint8) bool {
		f := NewFifo[int]("c", 5)
		pushed, popped := 0, 0
		for _, op := range ops {
			if op%2 == 0 {
				if f.CanPush() {
					f.Push(pushed)
					pushed++
				}
			} else {
				if f.CanPop() {
					f.Pop()
					popped++
				}
			}
			if op%5 == 0 {
				f.Update()
			}
		}
		f.Update()
		return f.Len() == pushed-popped
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestNewFifoPanicsOnBadDepth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero depth")
		}
	}()
	NewFifo[int]("bad", 0)
}
