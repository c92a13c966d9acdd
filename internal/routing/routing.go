// Package routing implements the routing functions evaluated in the
// paper: deterministic dimension-order XY (the "DT" series of Figs. 8–9)
// and minimal adaptive routing (the "AD" series), plus west-first and
// odd-even turn-model algorithms as extensions. A routing function maps
// (current node, destination) to the set of output ports a header flit may
// legally request; the VC allocator arbitrates among the candidates.
package routing

import (
	"fmt"
	"strings"

	"ftnoc/internal/flit"
	"ftnoc/internal/topology"
)

// Algorithm names a routing function.
type Algorithm uint8

// Supported algorithms.
const (
	// XY is deterministic dimension-order routing: exhaust the X offset,
	// then the Y offset. Deadlock-free on a mesh. The paper's "DT".
	XY Algorithm = iota + 1
	// MinimalAdaptive returns every productive direction, giving maximal
	// minimal-path adaptivity. Not deadlock-free by itself — which is the
	// point: the paper's recovery scheme (§3.2), not avoidance, handles
	// deadlock. The paper's "AD".
	MinimalAdaptive
	// WestFirst is a turn-model algorithm: all west hops are taken first,
	// after which the packet may route adaptively among N/E/S. Deadlock-
	// free on a mesh with bounded adaptivity.
	WestFirst
	// OddEven is the odd-even turn model (referenced by the paper as a
	// fault-tolerant deterministic substrate [26]): it restricts where
	// east-north/east-south and north-west/south-west turns may occur
	// based on column parity.
	OddEven
	// FaultAdaptive is up*/down* routing over the surviving topology: a
	// BFS spanning orientation of the live graph restricts every path to
	// zero or more "up" hops followed by zero or more "down" hops, which
	// is deadlock-free on any connected fault pattern and delivers
	// between every mutually reachable pair. Its tables are rebuilt by
	// the reconfiguration controller at every hard-fault boundary; a
	// destination with no legal path yields an empty candidate set, which
	// the network converts into an undeliverable verdict instead of a
	// hang.
	FaultAdaptive
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case XY:
		return "xy"
	case MinimalAdaptive:
		return "adaptive"
	case WestFirst:
		return "west-first"
	case OddEven:
		return "odd-even"
	case FaultAdaptive:
		return "fault-adaptive"
	default:
		return fmt.Sprintf("Algorithm(%d)", uint8(a))
	}
}

// Parse maps a routing name to its Algorithm, case-insensitively. It
// accepts both the CLI short forms (xy/dt, adaptive/ad) and the String
// forms (west-first, odd-even), with and without the hyphen.
func Parse(s string) (Algorithm, error) {
	switch strings.ToLower(s) {
	case "xy", "dt":
		return XY, nil
	case "adaptive", "ad":
		return MinimalAdaptive, nil
	case "west-first", "westfirst":
		return WestFirst, nil
	case "odd-even", "oddeven":
		return OddEven, nil
	case "fault-adaptive", "faultadaptive", "fa", "updown", "up-down":
		return FaultAdaptive, nil
	default:
		return 0, fmt.Errorf("unknown routing %q (want xy, adaptive, west-first, odd-even or fault-adaptive)", s)
	}
}

// Adaptive reports whether the algorithm may return more than one
// candidate port.
func (a Algorithm) Adaptive() bool { return a != XY }

// Func computes the legal output ports for a packet at cur heading for
// dst. Implementations must return Local exactly when cur == dst, and must
// never return a port without a physical link. Candidate order expresses
// preference; the allocator tries earlier ports first.
//
// Route must not allocate: every candidate set is an interned,
// package-level slice (see Only), shared read-only by all callers.
// Callers may keep a returned slice for as long as they like but must
// never write through it; its capacity equals its length, so an append
// copies instead of clobbering the table.
type Func interface {
	Route(cur, dst flit.NodeID) []topology.Port
	Algorithm() Algorithm
}

// none marks an absent port in the interned-set constructors.
const none = topology.NumPorts

// The interned candidate sets: every single port, and every ordered pair
// of distinct ports (the turn models list the same two ports in either
// order, so order is part of the key).
var (
	onePort  [topology.NumPorts][]topology.Port
	portPair [topology.NumPorts][topology.NumPorts][]topology.Port
)

func init() {
	for a := topology.Port(0); a < topology.NumPorts; a++ {
		onePort[a] = []topology.Port{a}
		for b := topology.Port(0); b < topology.NumPorts; b++ {
			if a != b {
				portPair[a][b] = []topology.Port{a, b}
			}
		}
	}
}

// Only returns the interned candidate set {p}. p must be a valid port.
func Only(p topology.Port) []topology.Port { return onePort[p] }

// ports returns the interned set [a, b] with none entries left out; nil
// when both are none.
func ports(a, b topology.Port) []topology.Port {
	switch {
	case a == none && b == none:
		return nil
	case a == none:
		return onePort[b]
	case b == none:
		return onePort[a]
	default:
		return portPair[a][b]
	}
}

// horizontal and vertical map a signed offset to its productive
// direction, or none when the offset is zero.
func horizontal(dx int) topology.Port {
	switch {
	case dx > 0:
		return topology.East
	case dx < 0:
		return topology.West
	default:
		return none
	}
}

func vertical(dy int) topology.Port {
	switch {
	case dy > 0:
		return topology.South
	case dy < 0:
		return topology.North
	default:
		return none
	}
}

// New returns the routing function for algorithm a over topo.
func New(a Algorithm, topo *topology.Topology) Func {
	switch a {
	case XY:
		return xyFunc{topo}
	case MinimalAdaptive:
		return adaptiveFunc{topo}
	case WestFirst:
		return westFirstFunc{topo}
	case OddEven:
		return oddEvenFunc{topo}
	case FaultAdaptive:
		return NewFaultAdaptiveFunc(topo)
	default:
		panic("routing: unknown algorithm")
	}
}

// offsets returns the signed coordinate deltas from cur to dst, taking the
// shortest way around in a torus.
func offsets(t *topology.Topology, cur, dst flit.NodeID) (dx, dy int) {
	cc, dc := t.CoordOf(cur), t.CoordOf(dst)
	dx = dc.X - cc.X
	dy = dc.Y - cc.Y
	if t.Kind() == topology.Torus {
		if dx > t.Width()/2 {
			dx -= t.Width()
		} else if dx < -t.Width()/2 {
			dx += t.Width()
		}
		if dy > t.Height()/2 {
			dy -= t.Height()
		} else if dy < -t.Height()/2 {
			dy += t.Height()
		}
	}
	return dx, dy
}

type xyFunc struct{ t *topology.Topology }

func (f xyFunc) Algorithm() Algorithm { return XY }

func (f xyFunc) Route(cur, dst flit.NodeID) []topology.Port {
	if cur == dst {
		return onePort[topology.Local]
	}
	dx, dy := offsets(f.t, cur, dst)
	switch {
	case dx > 0:
		return onePort[topology.East]
	case dx < 0:
		return onePort[topology.West]
	case dy > 0:
		return onePort[topology.South]
	default:
		return onePort[topology.North]
	}
}

type adaptiveFunc struct{ t *topology.Topology }

func (f adaptiveFunc) Algorithm() Algorithm { return MinimalAdaptive }

func (f adaptiveFunc) Route(cur, dst flit.NodeID) []topology.Port {
	if cur == dst {
		return onePort[topology.Local]
	}
	dx, dy := offsets(f.t, cur, dst)
	return ports(horizontal(dx), vertical(dy))
}

type westFirstFunc struct{ t *topology.Topology }

func (f westFirstFunc) Algorithm() Algorithm { return WestFirst }

func (f westFirstFunc) Route(cur, dst flit.NodeID) []topology.Port {
	if cur == dst {
		return onePort[topology.Local]
	}
	dx, dy := offsets(f.t, cur, dst)
	if dx < 0 {
		// All westward movement first, no adaptivity.
		return onePort[topology.West]
	}
	return ports(horizontal(dx), vertical(dy))
}

type oddEvenFunc struct{ t *topology.Topology }

func (f oddEvenFunc) Algorithm() Algorithm { return OddEven }

// Route implements the odd-even turn model (Chiu): in even columns a
// packet may not turn from east to north/south; in odd columns it may not
// turn from north/south to west. Restricting to minimal directions and
// applying the column-parity rules yields the classic formulation below.
func (f oddEvenFunc) Route(cur, dst flit.NodeID) []topology.Port {
	if cur == dst {
		return onePort[topology.Local]
	}
	cc := f.t.CoordOf(cur)
	dc := f.t.CoordOf(dst)
	dx, dy := offsets(f.t, cur, dst)
	if dx == 0 {
		if dy > 0 {
			return onePort[topology.South]
		}
		return onePort[topology.North]
	}
	if dx > 0 { // eastbound
		// EN/ES turns are forbidden in even columns, so only allow the
		// vertical move when the current column is odd, or when the
		// packet is one column west of the destination (last chance).
		if cc.X%2 == 1 || cc.X == dc.X-1 {
			return ports(vertical(dy), topology.East)
		}
		return onePort[topology.East]
	}
	// westbound: NW/SW turns are forbidden in odd columns — take the
	// vertical move only in even columns; West is always available.
	if cc.X%2 == 0 {
		return ports(vertical(dy), topology.West)
	}
	return onePort[topology.West]
}
