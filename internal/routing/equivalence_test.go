package routing

import (
	"fmt"
	"math/rand"
	"testing"

	"ftnoc/internal/flit"
	"ftnoc/internal/topology"
)

// The reference routing functions below state each algorithm in its
// plain branch-and-append form, building a fresh candidate slice per
// call, so the equivalence tests compare the interned implementation
// against an independent one rather than against itself.

func refXY(t *topology.Topology, cur, dst flit.NodeID) []topology.Port {
	if cur == dst {
		return []topology.Port{topology.Local}
	}
	dx, dy := offsets(t, cur, dst)
	switch {
	case dx > 0:
		return []topology.Port{topology.East}
	case dx < 0:
		return []topology.Port{topology.West}
	case dy > 0:
		return []topology.Port{topology.South}
	default:
		return []topology.Port{topology.North}
	}
}

func refAdaptive(t *topology.Topology, cur, dst flit.NodeID) []topology.Port {
	if cur == dst {
		return []topology.Port{topology.Local}
	}
	dx, dy := offsets(t, cur, dst)
	var ps []topology.Port
	if dx > 0 {
		ps = append(ps, topology.East)
	} else if dx < 0 {
		ps = append(ps, topology.West)
	}
	if dy > 0 {
		ps = append(ps, topology.South)
	} else if dy < 0 {
		ps = append(ps, topology.North)
	}
	return ps
}

func refWestFirst(t *topology.Topology, cur, dst flit.NodeID) []topology.Port {
	if cur == dst {
		return []topology.Port{topology.Local}
	}
	dx, dy := offsets(t, cur, dst)
	if dx < 0 {
		return []topology.Port{topology.West}
	}
	var ps []topology.Port
	if dx > 0 {
		ps = append(ps, topology.East)
	}
	if dy > 0 {
		ps = append(ps, topology.South)
	} else if dy < 0 {
		ps = append(ps, topology.North)
	}
	return ps
}

func refOddEven(t *topology.Topology, cur, dst flit.NodeID) []topology.Port {
	if cur == dst {
		return []topology.Port{topology.Local}
	}
	cc := t.CoordOf(cur)
	dc := t.CoordOf(dst)
	dx, dy := offsets(t, cur, dst)
	var ps []topology.Port
	if dx == 0 {
		if dy > 0 {
			ps = append(ps, topology.South)
		} else {
			ps = append(ps, topology.North)
		}
		return ps
	}
	if dx > 0 {
		if dy == 0 {
			ps = append(ps, topology.East)
			return ps
		}
		if cc.X%2 == 1 || cc.X == dc.X-1 {
			if dy > 0 {
				ps = append(ps, topology.South)
			} else {
				ps = append(ps, topology.North)
			}
		}
		ps = append(ps, topology.East)
		return ps
	}
	if dy != 0 && cc.X%2 == 0 {
		if dy > 0 {
			ps = append(ps, topology.South)
		} else {
			ps = append(ps, topology.North)
		}
	}
	ps = append(ps, topology.West)
	return ps
}

// refFaultAdaptive reads link health from the topology on every call
// instead of the function's live-link snapshot.
func refFaultAdaptive(f *FaultAdaptiveFunc, cur, dst flit.NodeID) []topology.Port {
	if cur == dst {
		return []topology.Port{topology.Local}
	}
	live := func(v flit.NodeID, d topology.Port) (flit.NodeID, bool) {
		if !f.t.LinkUp(v, d) {
			return 0, false
		}
		return f.t.Neighbor(v, d)
	}
	down := f.down[int(dst)*f.n : (int(dst)+1)*f.n]
	updown := f.updown[int(dst)*f.n : (int(dst)+1)*f.n]
	if updown[cur] == infDist {
		return nil
	}
	var ps []topology.Port
	if dd := down[cur]; dd != infDist {
		for _, d := range dirs {
			nbr, ok := live(cur, d)
			if ok && f.before(cur, nbr) && down[nbr] == dd-1 {
				ps = append(ps, d)
			}
		}
		return ps
	}
	ud := updown[cur]
	for _, d := range dirs {
		nbr, ok := live(cur, d)
		if ok && f.before(nbr, cur) && updown[nbr] == ud-1 {
			ps = append(ps, d)
		}
	}
	return ps
}

// reference returns the slice-building counterpart of fn.
func reference(fn Func, topo *topology.Topology) func(cur, dst flit.NodeID) []topology.Port {
	switch fn.Algorithm() {
	case XY:
		return func(c, d flit.NodeID) []topology.Port { return refXY(topo, c, d) }
	case MinimalAdaptive:
		return func(c, d flit.NodeID) []topology.Port { return refAdaptive(topo, c, d) }
	case WestFirst:
		return func(c, d flit.NodeID) []topology.Port { return refWestFirst(topo, c, d) }
	case OddEven:
		return func(c, d flit.NodeID) []topology.Port { return refOddEven(topo, c, d) }
	default:
		fa := fn.(*FaultAdaptiveFunc)
		return func(c, d flit.NodeID) []topology.Port { return refFaultAdaptive(fa, c, d) }
	}
}

var allAlgorithms = []Algorithm{XY, MinimalAdaptive, WestFirst, OddEven, FaultAdaptive}

// assertEquivalent checks every (cur, dst) pair of fn against its
// reference: same ports in the same order, nil exactly where the
// reference is nil, and no spare capacity a caller could append into.
func assertEquivalent(t *testing.T, fn Func, topo *topology.Topology) {
	t.Helper()
	ref := reference(fn, topo)
	n := topo.Nodes()
	for cur := 0; cur < n; cur++ {
		for dst := 0; dst < n; dst++ {
			c, d := flit.NodeID(cur), flit.NodeID(dst)
			got, want := fn.Route(c, d), ref(c, d)
			if fmt.Sprint(got) != fmt.Sprint(want) || (got == nil) != (want == nil) {
				t.Fatalf("%v Route(%d,%d) = %v, reference %v", fn.Algorithm(), c, d, got, want)
			}
			if cap(got) != len(got) {
				t.Fatalf("%v Route(%d,%d) has spare capacity %d > %d", fn.Algorithm(), c, d, cap(got), len(got))
			}
		}
	}
}

// TestRouteMatchesReference pins every algorithm's candidate lists to
// the slice-building reference on meshes and tori, square and not, even
// and odd (the odd-even rules and the torus wrap both depend on parity).
func TestRouteMatchesReference(t *testing.T) {
	for _, kind := range []topology.Kind{topology.Mesh, topology.Torus} {
		for _, wh := range [][2]int{{8, 8}, {5, 7}} {
			topo := topology.New(kind, wh[0], wh[1])
			for _, a := range allAlgorithms {
				t.Run(fmt.Sprintf("%v/%dx%d/%v", kind, wh[0], wh[1], a), func(t *testing.T) {
					assertEquivalent(t, New(a, topo), topo)
				})
			}
		}
	}
}

// TestFaultAdaptiveMatchesReferenceAfterRebuild kills links in batches
// and re-checks every pair after each Rebuild, on a mesh and a torus:
// the live-link snapshot must track the topology exactly.
func TestFaultAdaptiveMatchesReferenceAfterRebuild(t *testing.T) {
	for _, kind := range []topology.Kind{topology.Mesh, topology.Torus} {
		topo := topology.New(kind, 6, 6)
		f := NewFaultAdaptiveFunc(topo)
		rng := rand.New(rand.NewSource(7))
		links := topo.Links()
		rng.Shuffle(len(links), func(i, j int) { links[i], links[j] = links[j], links[i] })
		killed := 0
		for _, l := range links {
			if !topo.LinkUp(l.From, l.Dir) {
				continue
			}
			nbr, _ := topo.Neighbor(l.From, l.Dir)
			topo.FailLink(l.From, l.Dir)
			topo.FailLink(nbr, l.Dir.Opposite())
			if killed++; killed%4 != 0 {
				continue
			}
			f.Rebuild()
			assertEquivalent(t, f, topo)
			if killed >= 24 {
				break
			}
		}
	}
}

// TestRouteDoesNotAllocate: routing a header is allocation-free for
// every algorithm, local delivery and unreachable destinations included.
func TestRouteDoesNotAllocate(t *testing.T) {
	topo := topology.New(topology.Mesh, 8, 8)
	for _, a := range allAlgorithms {
		fn := New(a, topo)
		allocs := testing.AllocsPerRun(20, func() {
			for cur := flit.NodeID(0); cur < 64; cur += 3 {
				for dst := flit.NodeID(0); dst < 64; dst++ {
					fn.Route(cur, dst)
				}
			}
		})
		if allocs != 0 {
			t.Errorf("%v: Route allocated %.1f times per sweep, want 0", a, allocs)
		}
	}
	// A partitioned fault-adaptive network: the empty set is nil.
	topo.FailLink(0, topology.East)
	topo.FailLink(1, topology.West)
	topo.FailLink(0, topology.South)
	topo.FailLink(8, topology.North)
	fa := NewFaultAdaptiveFunc(topo)
	if got := fa.Route(0, 63); got != nil {
		t.Fatalf("Route to an unreachable node = %v, want nil", got)
	}
	if allocs := testing.AllocsPerRun(20, func() { fa.Route(0, 63) }); allocs != 0 {
		t.Errorf("unreachable Route allocated %.1f times, want 0", allocs)
	}
}
