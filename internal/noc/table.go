package noc

// RouteEntry is one weighted next-hop option from a routing-table lookup
// (paper §II-A2): forward to Next with selection propensity Weight,
// renaming the flow into its second phase when Phase2 is set. Next == the
// looking-up node means "eject here" (deliver to the local CPU/injector
// port). Renaming only ever changes a flow's phase bit, so an entry holds
// the bit, not a flow ID, and one entry serves every flow that takes the
// same hop: the leaving flow is the arriving flow's base plus the bit
// (NextFlow).
//
// Then is the line the Next router will route the flit by — the one at
// <this node, NextFlow> in Next's table. A head flit that leaves by this
// entry carries its number (Flit.line, RouteLine.ID), so the next router's
// RC resolves a number instead of looking up (lookahead routing), and a
// reroute after VA starvation draws again from the same line. Then is nil
// on ejection. A flit without a line — at injection, after a restore, or
// leaving by a line its store did not number — is looked up in the
// router's RouteTable.
type RouteEntry struct {
	Next   NodeID
	Phase2 bool
	Weight float64
	Then   *RouteLine
}

// NextFlow is the flow a flit that arrived as flow leaves by e as.
func (e *RouteEntry) NextFlow(flow FlowID) FlowID {
	if e.Phase2 {
		return flow.WithPhase2()
	}
	return flow.Base()
}

// RouteLine is one routing-table line: the weighted next-hop set for one
// <node, prev_node_id, flow_id>. A line holds no flow ID and no node of
// its own, so the store shares one line among every <node, prev, flow>
// whose entries — next hops, phase bits, weights and linked lines — are
// the same. ID numbers the line in its store, from 1, so that a flit
// carries it in 32 bits and any router resolves it (RouteTable.Line); 0
// means unnumbered, and a flit routed by such a line carries none.
type RouteLine struct {
	Entries []RouteEntry
	ID      uint32
}

// RouteTable answers route-computation lookups for one node. Lookups are
// addressed by the incoming direction and flow ID, exactly as in the
// paper: <prev_node_id, flow_id> -> {<next_node_id, next_flow_id, weight>...}.
//
// A table is owned by a single node and is only queried by the worker
// stepping that node — one worker at a time, handed over only at the
// barrier — so implementations need no internal locking. Flits carry
// the numbers of the lines it returns to routers on other threads, so a
// line must never change once Lookup has returned it.
type RouteTable interface {
	// Lookup returns the line for a flow arriving from prev (prev == the
	// node itself for locally injected packets), or nil if there is none.
	Lookup(prev NodeID, flow FlowID) *RouteLine
	// Line returns the line numbered id (RouteLine.ID, never 0) by the
	// store behind the table. Every router of a machine routes by views of
	// one store, so a number one router's table handed out resolves at any
	// other, from that router's thread.
	Line(id uint32) *RouteLine
}

// Adaptiver is optionally implemented by route tables whose entry set is
// meant to be narrowed at runtime using congestion information rather
// than sampled by weight (the paper's adaptive routing support).
type Adaptiver interface {
	Adaptive() bool
}

// VCChoice is one weighted virtual-channel option from a VCA lookup.
type VCChoice struct {
	VC     int
	Weight float64
}

// VCATable answers virtual-channel-allocation lookups (paper §II-A3),
// addressed by <prev_node_id, flow_id, next_node_id, next_flow_id>.
// numVCs is the VC count of the downstream ingress port being allocated.
type VCATable interface {
	Candidates(prev NodeID, flow FlowID, next NodeID, nextFlow FlowID, numVCs int) []VCChoice
}

// VCAMode selects the runtime allocation discipline layered on top of the
// candidate table.
type VCAMode uint8

const (
	// VCADynamic grants any free candidate VC.
	VCADynamic VCAMode = iota
	// VCAStaticSet restricts each flow to a deterministic candidate subset
	// (static set VCA per Shim et al.); the table encodes the subset.
	VCAStaticSet
	// VCAEDVCA is exclusive dynamic VCA: a VC may hold flits of only one
	// flow at a time, guaranteeing in-order delivery (Lis et al.).
	VCAEDVCA
	// VCAFAA is flow-aware allocation: prefer a VC already carrying the
	// same flow, else the emptiest candidate (Banerjee & Moore).
	VCAFAA
)

func (m VCAMode) String() string {
	switch m {
	case VCADynamic:
		return "dynamic"
	case VCAStaticSet:
		return "static-set"
	case VCAEDVCA:
		return "edvca"
	case VCAFAA:
		return "faa"
	}
	return "?"
}
