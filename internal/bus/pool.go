package bus

// RequestPool recycles Request objects so the steady-state hot path of a
// platform allocates nothing per transaction. One pool is shared by every
// component of a platform instance (the platform builder wires it in), and
// ownership follows the transaction lifecycle:
//
//   - the component that created a request puts it back when it consumes the
//     transaction's final response beat (initiators on Last, bridges on the
//     downstream clone they minted);
//   - posted writes produce no response, so the component that takes the
//     write out of circulation puts it back: the final target for the copy
//     it consumed, the bridge for the upstream original it retired at
//     forward time;
//   - a non-posting fabric (AHB) turns a posted write into an acknowledged
//     one, but its issuer already counted it complete and tracks it no
//     more: whoever receives that untracked final beat puts it back;
//   - fabrics never own requests and never put.
//
// A nil *RequestPool is valid everywhere: Get falls back to plain allocation
// and Put is a no-op, so components built outside a platform (unit tests,
// examples) keep their original behaviour.
//
// The pool is not safe for concurrent use: a platform is single-threaded by
// construction, and the parallel experiment runner gives each worker its own
// platform (and therefore its own pool).
type RequestPool struct {
	free []*Request
	gets int64
	news int64
}

// Get returns a scrubbed Request, recycling a previously Put one when
// available.
func (p *RequestPool) Get() *Request {
	if p == nil {
		return &Request{}
	}
	p.gets++
	n := len(p.free) - 1
	if n < 0 {
		p.news++
		return &Request{}
	}
	r := p.free[n]
	p.free[n] = nil
	p.free = p.free[:n]
	r.pooled = false
	return r
}

// Put returns a request to the pool. The request must not be referenced by
// any live beat, queue, or map entry. Putting the same request twice without
// an intervening Get panics — that is a lifecycle bug, not a runtime
// condition. Put on a nil pool or a nil request is a no-op.
func (p *RequestPool) Put(r *Request) {
	if p == nil || r == nil {
		return
	}
	if r.pooled {
		panic("bus: request returned to pool twice")
	}
	*r = Request{pooled: true}
	p.free = append(p.free, r)
}

// Recycled returns how many Gets were served from the free list vs. fresh
// allocations (for tests and diagnostics).
func (p *RequestPool) Recycled() (recycled, allocated int64) {
	if p == nil {
		return 0, 0
	}
	return p.gets - p.news, p.news
}

// Free returns how many requests sit in the free list. Once every
// transaction has drained, each request the pool minted must be back there
// (for tests and diagnostics).
func (p *RequestPool) Free() int {
	if p == nil {
		return 0
	}
	return len(p.free)
}
