// Package trace implements HORNET's trace-driven injection (paper
// §II-D1): a text-format trace of injection events — each with a
// timestamp, source, destination (defining the flow), packet size and an
// optional repeat period — plus a per-node injector that offers packets to
// the network at the scheduled times, relying on the router's injector
// queue for retransmission when the network cannot accept them.
package trace

import (
	"bufio"
	"container/heap"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"hornet/internal/noc"
	"hornet/internal/sim"
	"hornet/internal/snapshot"
)

// Event is one trace record. Count > 1 with Period > 0 repeats the
// injection (a periodic flow).
type Event struct {
	Cycle  uint64
	Src    noc.NodeID
	Dst    noc.NodeID
	Flits  int
	Period uint64
	Count  uint64
}

// Trace is an ordered set of events.
type Trace struct {
	Events []Event
}

// Sort orders events by (cycle, src, dst) for stable output.
func (t *Trace) Sort() {
	sort.SliceStable(t.Events, func(i, j int) bool {
		a, b := t.Events[i], t.Events[j]
		if a.Cycle != b.Cycle {
			return a.Cycle < b.Cycle
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		return a.Dst < b.Dst
	})
}

// Add appends a one-shot injection event.
func (t *Trace) Add(cycle uint64, src, dst noc.NodeID, flits int) {
	t.Events = append(t.Events, Event{Cycle: cycle, Src: src, Dst: dst, Flits: flits, Count: 1})
}

// AddPeriodic appends a repeating flow: count injections, period cycles apart.
func (t *Trace) AddPeriodic(cycle uint64, src, dst noc.NodeID, flits int, period, count uint64) {
	t.Events = append(t.Events, Event{Cycle: cycle, Src: src, Dst: dst, Flits: flits, Period: period, Count: count})
}

// Write emits the trace in the text format:
//
//	# comment
//	<cycle> <src> <dst> <flits> [<period> <count>]
func (t *Trace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "# hornet trace v1: cycle src dst flits [period count]")
	for _, e := range t.Events {
		if e.Period > 0 && e.Count > 1 {
			fmt.Fprintf(bw, "%d %d %d %d %d %d\n", e.Cycle, e.Src, e.Dst, e.Flits, e.Period, e.Count)
		} else {
			fmt.Fprintf(bw, "%d %d %d %d\n", e.Cycle, e.Src, e.Dst, e.Flits)
		}
	}
	return bw.Flush()
}

// Read parses the text format produced by Write.
func Read(r io.Reader) (*Trace, error) {
	t := &Trace{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 4 && len(fields) != 6 {
			return nil, fmt.Errorf("trace: line %d: want 4 or 6 fields, got %d", lineNo, len(fields))
		}
		vals := make([]uint64, len(fields))
		for i, f := range fields {
			v, err := strconv.ParseUint(f, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
			}
			vals[i] = v
		}
		e := Event{
			Cycle: vals[0],
			Src:   noc.NodeID(vals[1]),
			Dst:   noc.NodeID(vals[2]),
			Flits: int(vals[3]),
			Count: 1,
		}
		if len(fields) == 6 {
			e.Period, e.Count = vals[4], vals[5]
		}
		if vals[3] < 1 || vals[3] > noc.MaxPacketFlits {
			return nil, fmt.Errorf("trace: line %d: packet of %d flits, want 1 to %d", lineNo, vals[3], noc.MaxPacketFlits)
		}
		t.Events = append(t.Events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return t, nil
}

// pendingEvent is a scheduled occurrence in the injector's heap.
type pendingEvent struct {
	next      uint64
	remaining uint64
	ev        Event
}

type eventHeap []pendingEvent

func (h eventHeap) Len() int           { return len(h) }
func (h eventHeap) Less(i, j int) bool { return h[i].next < h[j].next }
func (h eventHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)        { *h = append(*h, x.(pendingEvent)) }
func (h *eventHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// Injector replays one node's share of a trace, offering packets at their
// scheduled cycles. The router's pending queue provides the paper's
// injector-side buffering and retransmission.
type Injector struct {
	node  noc.NodeID
	class uint8
	heap  eventHeap
}

// NewInjector builds the injector for node from the whole trace.
func NewInjector(node noc.NodeID, t *Trace, class uint8) *Injector {
	inj := &Injector{node: node, class: class}
	for _, e := range t.Events {
		if e.Src != node {
			continue
		}
		count := e.Count
		if count == 0 {
			count = 1
		}
		inj.heap = append(inj.heap, pendingEvent{next: e.Cycle, remaining: count, ev: e})
	}
	heap.Init(&inj.heap)
	return inj
}

// Pending returns the number of scheduled occurrences left (periodic
// events count once until exhausted).
func (inj *Injector) Pending() int { return len(inj.heap) }

// Tick offers all packets scheduled at or before cycle.
func (inj *Injector) Tick(cycle uint64, offer func(noc.Packet)) {
	for len(inj.heap) > 0 && inj.heap[0].next <= cycle {
		pe := inj.heap[0]
		if pe.ev.Dst != inj.node {
			offer(noc.Packet{
				Flow:  noc.MakeFlow(inj.node, pe.ev.Dst, inj.class),
				Dst:   pe.ev.Dst,
				Flits: pe.ev.Flits,
			})
		}
		pe.remaining--
		if pe.remaining == 0 || pe.ev.Period == 0 {
			heap.Pop(&inj.heap)
			continue
		}
		pe.next += pe.ev.Period
		inj.heap[0] = pe
		heap.Fix(&inj.heap, 0)
	}
}

// SaveState serializes the injector's replay position: the pending
// heap, slot by slot. The heap's slice layout is a deterministic
// function of the push/pop history, so saving it verbatim keeps the
// encoding stable and restores an identical replay order.
func (inj *Injector) SaveState(w *snapshot.Writer) {
	w.Int(len(inj.heap))
	for _, pe := range inj.heap {
		w.Uint64(pe.next)
		w.Uint64(pe.remaining)
		w.Uint64(pe.ev.Cycle)
		w.Int32(int32(pe.ev.Src))
		w.Int32(int32(pe.ev.Dst))
		w.Int(pe.ev.Flits)
		w.Uint64(pe.ev.Period)
		w.Uint64(pe.ev.Count)
	}
}

// LoadState restores a replay position saved by SaveState, replacing
// whatever schedule the injector currently holds.
func (inj *Injector) LoadState(r *snapshot.Reader) error {
	n := r.Count(1 << 26)
	h := make(eventHeap, 0, n)
	for i := 0; i < n; i++ {
		h = append(h, pendingEvent{
			next:      r.Uint64(),
			remaining: r.Uint64(),
			ev: Event{
				Cycle:  r.Uint64(),
				Src:    noc.NodeID(r.Int32()),
				Dst:    noc.NodeID(r.Int32()),
				Flits:  r.Int(),
				Period: r.Uint64(),
				Count:  r.Uint64(),
			},
		})
	}
	if err := r.Err(); err != nil {
		return err
	}
	inj.heap = h
	return nil
}

// NextEvent implements the fast-forward query.
func (inj *Injector) NextEvent(now uint64) uint64 {
	if len(inj.heap) == 0 {
		return sim.NoEvent
	}
	next := inj.heap[0].next
	if next <= now {
		return now + 1
	}
	return next
}
