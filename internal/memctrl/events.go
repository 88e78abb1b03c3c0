package memctrl

import (
	"fmt"
	"sort"

	"drmap/internal/sim"
	"drmap/internal/trace"
)

// RequestSource yields a request stream by index, letting callers feed
// an agent without materializing the stream: At(i) must be a pure
// function of i (it may be called more than once per index), and Len
// must be constant over the agent's life. The simulate path implements
// it directly over the mapping policy's address walk.
type RequestSource interface {
	Len() int
	At(i int) trace.Request
}

// sliceSource adapts a materialized request slice.
type sliceSource []trace.Request

func (s sliceSource) Len() int               { return len(s) }
func (s sliceSource) At(i int) trace.Request { return s[i] }

// arrivalChunk is the agent's scheduling window: how many arrival
// events are live on the engine at once. Arrivals fire strictly in
// index order, so when the last event of a window is handled every
// ring slot of the window has been delivered and the next window can
// reuse them - the engine queue and the event storage stay O(window)
// instead of O(stream).
const arrivalChunk = 256

// Agent drives one Controller as a discrete-event component on a
// sim.Engine: the controller's request stream becomes arrival events
// (request i of the service order arrives at tick i*ArrivalGap; with
// no gap, the whole stream arrives at tick 0 and fires in order), and
// each arrival services the next request - the source's next under
// FCFS, the FR-FCFS picker's choice otherwise - through the exact
// timing state machine the monolithic loop used. Command issue, timing
// constraints and refresh remain inside the servicing step - that is
// what pins the event-driven controller bit-for-bit to the original
// command streams, counters and energy.
//
// Each Agent is its own sim.Domain, so a parallel engine runs many
// agents (one controller per tile stream) concurrently while every
// individual stream stays strictly sequential.
type Agent struct {
	ctrl *Controller
	eng  sim.Engine
	dom  *sim.Domain
	src  RequestSource
	n    int
	// fr picks the service order under FR-FCFS; nil means the source's
	// index order (FCFS).
	fr *frfcfs
	// arrivals is the ring backing the scheduled events of the current
	// window: at most arrivalChunk slots, scheduled by pointer,
	// instead of boxing one value event per request into the Event
	// interface.
	arrivals []arrival
	sched    int // arrivals scheduled so far
	next     int // arrivals handled so far
	done     bool
	res      *Result
	// onDone fires (from the engine's goroutine) the moment the agent
	// finalizes its result; see SetOnDone.
	onDone func()
}

// arrival is one request-arrival event.
type arrival struct {
	tick  int64
	agent *Agent
	idx   int // position in the agent's service order
}

func (e *arrival) Tick() int64          { return e.tick }
func (e *arrival) Handler() sim.Handler { return e.agent }

// NewAgent resets the controller, validates and schedules the request
// stream's arrival events on the engine, and returns the agent that
// will handle them. The controller must not be shared with another
// live agent: the stream owns its state until the engine drains.
// An empty stream finalizes immediately (its result is the reset
// controller's empty result, exactly as Run returned it).
func NewAgent(eng sim.Engine, ctrl *Controller, reqs []trace.Request) (*Agent, error) {
	return NewSourceAgent(eng, ctrl, sliceSource(reqs))
}

// NewSourceAgent is NewAgent over a RequestSource: the stream is read
// by index as arrivals are serviced (FR-FCFS reads at most 16 requests
// ahead), so a generator-backed source runs with no per-request
// storage under either scheduler.
func NewSourceAgent(eng sim.Engine, ctrl *Controller, src RequestSource) (*Agent, error) {
	ctrl.reset()
	g := ctrl.cfg.Geometry
	n := src.Len()
	for i := 0; i < n; i++ {
		if r := src.At(i); !r.Addr.Valid(g) {
			return nil, fmt.Errorf("memctrl: request %d: address %v outside geometry", i, r.Addr)
		}
	}
	a := &Agent{
		ctrl: ctrl,
		eng:  eng,
		dom:  sim.NewDomain("memctrl"),
		src:  src,
		n:    n,
	}
	if n == 0 {
		a.finalize()
		return a, nil
	}
	if !ctrl.opt.DiscardServiced {
		// Pre-size the serviced log: its length is known exactly, and
		// append-growth doubling was a visible share of the run's bytes.
		ctrl.result.Serviced = make([]trace.ServicedRequest, 0, n)
	}
	ring := n
	if ring > arrivalChunk {
		ring = arrivalChunk
	}
	a.arrivals = make([]arrival, ring)
	if ctrl.opt.Scheduler == FRFCFS {
		a.fr = newFRFCFS(ctrl, src)
	}
	a.scheduleWindow()
	return a, nil
}

// scheduleWindow schedules the next window of arrivals into the ring.
// Called at construction and from Handle when the last arrival of the
// previous window fires - at that point every slot has been delivered
// (arrivals fire in index order), so overwriting them is safe. An
// arrival whose nominal tick has already passed (possible only when
// agents with different gaps share an engine) is scheduled at the
// current tick instead; the service-time floor still honours the
// nominal i*ArrivalGap, so the controller's results are unchanged.
func (a *Agent) scheduleWindow() {
	gap := int64(a.ctrl.opt.ArrivalGap)
	now := a.eng.Now()
	end := a.sched + len(a.arrivals)
	if end > a.n {
		end = a.n
	}
	for i := a.sched; i < end; i++ {
		tick := now
		if t := int64(i) * gap; t > tick {
			tick = t
		}
		slot := &a.arrivals[i%len(a.arrivals)]
		*slot = arrival{tick: tick, agent: a, idx: i}
		a.eng.Schedule(slot)
	}
	a.sched = end
}

// Domain declares the agent's scheduling domain: the controller's
// state is shared by all of the agent's events and nothing else.
func (a *Agent) Domain() *sim.Domain { return a.dom }

// SetOnDone registers a completion hook, fired exactly once when the
// agent finalizes its result - from whichever engine goroutine handles
// the last arrival, so the hook must be safe to call there. Setting it
// on an already-done agent fires it immediately.
func (a *Agent) SetOnDone(f func()) {
	a.onDone = f
	if a.done && f != nil {
		f()
	}
}

// Handle services one arrival. Arrivals fire in service order (the
// engine's (tick, schedule-order) contract), so the controller sees
// requests in exactly the sequence the monolithic loop served them.
func (a *Agent) Handle(ev sim.Event) error {
	e, ok := ev.(*arrival)
	if !ok || e.agent != a {
		return fmt.Errorf("memctrl: agent received foreign event %T", ev)
	}
	if e.idx != a.next {
		return fmt.Errorf("memctrl: arrival %d out of order (expected %d)", e.idx, a.next)
	}
	idx := e.idx
	a.next++
	c := a.ctrl
	if c.opt.ArrivalGap > 0 {
		c.reqFloor = int64(idx) * int64(c.opt.ArrivalGap)
	}
	if a.fr != nil {
		c.service(a.fr.pick())
	} else {
		c.service(a.src.At(idx))
	}
	// Scheduling the next window reuses e's ring slot; e is dead past
	// this point.
	if a.next == a.sched && a.sched < a.n {
		a.scheduleWindow()
	}
	if a.next == a.n {
		a.finalize()
	}
	return nil
}

// finalize closes the run exactly as the monolithic loop did: settle
// the device-active and subarray-latch accounting at the final cycle,
// stable-sort the command log by issue cycle (generation order breaks
// ties), and snapshot the result.
func (a *Agent) finalize() {
	c := a.ctrl
	c.closeActiveAccounting(c.result.TotalCycles)
	for bi := range c.banks {
		c.accountExtraOpen(&c.banks[bi], c.result.TotalCycles)
	}
	if len(c.result.Commands) > 1 {
		sort.SliceStable(c.result.Commands, func(i, j int) bool {
			return c.result.Commands[i].Cycle < c.result.Commands[j].Cycle
		})
	}
	res := c.result
	a.res = &res
	a.done = true
	if a.onDone != nil {
		a.onDone()
	}
}

// Done reports whether every arrival has been serviced and the result
// finalized.
func (a *Agent) Done() bool { return a.done }

// Pending returns how many requests of the stream have not been
// serviced yet - the invariant the randomized acceptance harness
// checks after a run (it must be zero once the engine drains).
func (a *Agent) Pending() int { return a.n - a.next }

// Result returns the finalized result; calling it before the engine
// has drained the agent's arrivals is an error.
func (a *Agent) Result() (*Result, error) {
	if !a.done {
		return nil, fmt.Errorf("memctrl: agent has %d pending requests (%d of %d serviced)",
			a.Pending(), a.next, a.n)
	}
	return a.res, nil
}
