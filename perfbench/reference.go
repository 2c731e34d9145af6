package main

import (
	"container/heap"
	"time"
)

// Host speed on a shared machine changes from second to second: other
// tenants' work on the same physical core slows simulator-like code by up to
// about 2x for stretches of seconds to minutes, while a plain arithmetic loop
// hardly slows at all. The benchmark therefore times a fixed reference model
// next to every job and reports each job's times at reference speed. The
// reference is part of the benchmark, not of the simulator, so a change to
// the simulator moves the job's times and not the reference's.
//
// Of the reference models tried, this one followed the simulator's slowdowns
// most closely: over ten-second windows of alternating jobs and reference
// runs, the ratio of their median times varied about a third as much as the
// job time did. Its queues grow by reslicing and its heap boxes every read,
// so it allocates and collects garbage as it runs; models that preallocated
// everything, or that touched a larger array per read, followed less well.

// refSeconds is the reference model's run time that reported times are
// scaled to. It is close to the median of refKernel's run times on the
// shared 2-vCPU Xeon (Sapphire Rapids, KVM guest) the benchmark was sized
// on: over ten 28-second runs of each workload, the median run took 42-49
// ms. Reported times so read close to that host's seconds.
const refSeconds = 0.05

// refCycles is how many cycles one refKernel call simulates.
const refCycles = 500_000

// refReq is one read in flight in the reference model.
type refReq struct {
	addr uint64
	src  int
	due  int64
}

type refInitiator struct {
	rng     uint64
	pending int
	out     []refReq
	done    int64
}

type refHeap []refReq

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].due < h[j].due }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(refReq)) }
func (h *refHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// refKernel runs the reference model for refCycles cycles: twelve initiators
// issue random reads, at most four outstanding each; a round-robin arbiter
// grants one per cycle into an 8-deep queue; a memory with eight banks serves
// one read at a time, 3 cycles on an open row and 9 otherwise; and reads
// retire from a due-time heap. It returns the reads completed, the same on
// every call.
func refKernel() int64 {
	ins := make([]*refInitiator, 12)
	for i := range ins {
		ins[i] = &refInitiator{rng: uint64(i*7919 + 1)}
	}
	var rows [8]uint64
	var queue []refReq
	var due refHeap
	var busy int64
	next := 0
	for now := int64(0); now < refCycles; now++ {
		for i, in := range ins {
			in.rng ^= in.rng << 13
			in.rng ^= in.rng >> 7
			in.rng ^= in.rng << 17
			if in.pending < 4 && in.rng&3 == 0 {
				in.out = append(in.out, refReq{addr: in.rng & 0xffffff, src: i})
				in.pending++
			}
		}
		for k := range ins {
			in := ins[(next+k)%len(ins)]
			if len(in.out) > 0 && len(queue) < 8 {
				queue = append(queue, in.out[0])
				in.out = in.out[1:]
				next = (next + k + 1) % len(ins)
				break
			}
		}
		if busy <= now && len(queue) > 0 {
			r := queue[0]
			queue = queue[1:]
			bank := (r.addr >> 10) & 7
			lat := int64(3)
			if rows[bank] != r.addr>>13 {
				lat = 9
				rows[bank] = r.addr >> 13
			}
			busy = now + lat
			r.due = now + lat
			heap.Push(&due, r)
		}
		for len(due) > 0 && due[0].due <= now {
			r := heap.Pop(&due).(refReq)
			ins[r.src].pending--
			ins[r.src].done++
		}
	}
	var done int64
	for _, in := range ins {
		done += in.done
	}
	return done
}

// timeReference runs refKernel once and returns how long it took.
func timeReference() time.Duration {
	start := time.Now()
	refDone += refKernel()
	return time.Since(start)
}

// refDone keeps refKernel's result live.
var refDone int64
