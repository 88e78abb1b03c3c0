package memctrl

import "drmap/internal/trace"

// Scheduler selects the order in which queued requests are serviced.
type Scheduler int

const (
	// FCFS services requests strictly in arrival order - the paper's
	// Table II configuration.
	FCFS Scheduler = iota
	// FRFCFS (first-ready, first-come-first-served) looks ahead into a
	// window of queued requests and services row-buffer hits first,
	// falling back to the oldest request; a starvation cap bounds how
	// often the head may be bypassed. Picking costs O(n x 16) for an
	// n-request stream (the window depth is 16), and the stream is read
	// by index as it drains, never held whole.
	FRFCFS
)

// String names the scheduler.
func (s Scheduler) String() string {
	if s == FRFCFS {
		return "FR-FCFS"
	}
	return "FCFS"
}

// frfcfsWindow is the lookahead depth of the FR-FCFS scheduler.
const frfcfsWindow = 16

// frfcfsStarvationCap bounds how many times the oldest request can be
// bypassed by younger row hits before it is forced.
const frfcfsStarvationCap = 4

// frfcfs is the FR-FCFS picker an Agent owns. The pending list is
// always window ++ [next, n): the window holds the oldest pending
// requests in arrival order, at most frfcfsWindow, and refills from the
// source as picks leave it. A stream costs O(n x frfcfsWindow) time and
// no per-request storage, and a pick depends only on the requests and
// the shadow rows, never on controller timing.
type frfcfs struct {
	c           *Controller
	src         RequestSource
	next        int // next source index to enter the window
	window      []frfcfsPending
	open        []int // shadow open row by bankIndex*stateSubarrays + stateSubarray; -1 is none
	headStarved int
}

// frfcfsPending is one queued request and its shadow-state slot.
type frfcfsPending struct {
	req  trace.Request
	slot int
}

func newFRFCFS(c *Controller, src RequestSource) *frfcfs {
	p := &frfcfs{c: c, src: src, window: make([]frfcfsPending, 0, frfcfsWindow),
		open: make([]int, len(c.banks)*c.stateSubarrays)}
	for i := range p.open {
		p.open[i] = -1
	}
	p.fill()
	return p
}

// fill tops the window up from the source in arrival order.
func (p *frfcfs) fill() {
	for len(p.window) < frfcfsWindow && p.next < p.src.Len() {
		r := p.src.At(p.next)
		p.next++
		slot := p.c.bankIndex(r.Addr)*p.c.stateSubarrays + p.c.stateSubarray(r.Addr)
		p.window = append(p.window, frfcfsPending{r, slot})
	}
}

// pick removes and returns the next request to service: the oldest
// windowed row hit, else the oldest request, which is also forced once
// it has been bypassed frfcfsStarvationCap times.
func (p *frfcfs) pick() trace.Request {
	pick := 0
	if p.headStarved < frfcfsStarvationCap {
		for w, e := range p.window {
			if p.open[e.slot] == e.req.Addr.Row {
				pick = w
				break
			}
		}
	}
	if pick == 0 {
		p.headStarved = 0
	} else {
		p.headStarved++
	}
	e := p.window[pick]
	p.open[e.slot] = e.req.Addr.Row
	p.window = append(p.window[:pick], p.window[pick+1:]...)
	p.fill()
	return e.req
}
