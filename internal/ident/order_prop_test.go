package ident

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// randomPath draws a well-formed atom identifier of depth 1..maxDepth with a
// small site/counter alphabet so collisions (shared prefixes, equal
// disambiguators) are frequent enough to exercise every comparison branch.
func randomPath(r *rand.Rand, maxDepth int) Path {
	depth := 1 + r.Intn(maxDepth)
	p := make(Path, 0, depth)
	for i := 0; i < depth; i++ {
		bit := uint8(r.Intn(2))
		last := i == depth-1
		if last || r.Intn(3) == 0 {
			var d Dis
			switch r.Intn(3) {
			case 0:
				d = Canonical
			case 1:
				d = Dis{Site: SiteID(1 + r.Intn(4))}
			default:
				d = Dis{Counter: uint32(1 + r.Intn(3)), Site: SiteID(1 + r.Intn(4))}
			}
			p = append(p, M(bit, d))
		} else {
			p = append(p, J(bit))
		}
	}
	return p
}

// Generate implements quick.Generator so testing/quick can draw Paths.
type quickPath struct{ P Path }

func (quickPath) Generate(r *rand.Rand, size int) reflect.Value {
	maxDepth := size
	if maxDepth < 2 {
		maxDepth = 2
	}
	if maxDepth > 24 {
		maxDepth = 24
	}
	return reflect.ValueOf(quickPath{P: randomPath(r, maxDepth)})
}

func TestCompareAntisymmetric(t *testing.T) {
	f := func(a, b quickPath) bool {
		return Compare(a.P, b.P) == -Compare(b.P, a.P)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestCompareReflexiveOnEquals(t *testing.T) {
	f := func(a quickPath) bool {
		return Compare(a.P, a.P.Clone()) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestCompareZeroImpliesEqual(t *testing.T) {
	f := func(a, b quickPath) bool {
		if Compare(a.P, b.P) == 0 {
			return a.P.Equal(b.P)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestCompareTransitive(t *testing.T) {
	f := func(a, b, c quickPath) bool {
		x, y, z := a.P, b.P, c.P
		// Sort the triple by Compare, then verify pairwise consistency.
		s := []Path{x, y, z}
		sort.Slice(s, func(i, j int) bool { return Less(s[i], s[j]) })
		return Compare(s[0], s[1]) <= 0 && Compare(s[1], s[2]) <= 0 && Compare(s[0], s[2]) <= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// TestCompareTransitiveExhaustiveSmall enumerates every path of depth <= 3
// over a two-bit, three-disambiguator alphabet and checks transitivity
// exhaustively on ordered triples sampled from the sorted universe.
func TestCompareTransitiveExhaustiveSmall(t *testing.T) {
	dises := []Dis{Canonical, {Site: 1}, {Site: 2}}
	var elems []Elem
	for bit := uint8(0); bit <= 1; bit++ {
		elems = append(elems, J(bit))
		for _, d := range dises {
			elems = append(elems, M(bit, d))
		}
	}
	var universe []Path
	var build func(prefix Path, depth int)
	build = func(prefix Path, depth int) {
		if len(prefix) > 0 && prefix.Last().Kind == Mini {
			universe = append(universe, prefix.Clone())
		}
		if depth == 0 {
			return
		}
		for _, e := range elems {
			build(append(prefix, e), depth-1)
		}
	}
	build(Path{}, 3)
	sort.Slice(universe, func(i, j int) bool { return Less(universe[i], universe[j]) })
	// After sorting with the comparator, every pair must agree with the
	// sorted order; any intransitivity shows up as an inversion.
	for i := 0; i < len(universe); i++ {
		for j := i + 1; j < len(universe); j++ {
			if c := Compare(universe[i], universe[j]); c > 0 {
				t.Fatalf("inversion after sort: %v > %v", universe[i], universe[j])
			} else if c == 0 && !universe[i].Equal(universe[j]) {
				t.Fatalf("distinct paths compare equal: %v, %v", universe[i], universe[j])
			}
		}
	}
	if len(universe) < 100 {
		t.Fatalf("universe too small (%d paths), enumeration is broken", len(universe))
	}
}

func TestEncodeRoundTripProperty(t *testing.T) {
	f := func(a quickPath) bool {
		data := a.P.AppendBinary(nil)
		q, n, err := DecodePath(data)
		return err == nil && n == len(data) && q.Equal(a.P)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestOrderAgreesWithChildGeometry(t *testing.T) {
	// For any atom id p: everything in p's left-descendant region sorts
	// before p, everything in the right-descendant region after.
	f := func(a, b quickPath) bool {
		p := a.P
		suffix := b.P
		left := append(p.Clone(), suffix...)
		left[len(p)] = Elem{Bit: 0, Kind: left[len(p)].Kind, Dis: left[len(p)].Dis}
		right := append(p.Clone(), suffix...)
		right[len(p)] = Elem{Bit: 1, Kind: right[len(p)].Kind, Dis: right[len(p)].Dis}
		return Less(left, p) && Less(p, right)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// sharedPair draws two paths that share a random prefix, so the shared
// length is often well above zero and every skip length gets exercised.
func sharedPair(r *rand.Rand) (Path, Path) {
	cut := func(p Path) Path { return p[:r.Intn(len(p)+1)] }
	prefix := cut(randomPath(r, 10))
	p := append(prefix.Clone(), cut(randomPath(r, 4))...)
	q := append(prefix.Clone(), cut(randomPath(r, 4))...)
	return p, q
}

// sharedLen returns the length of the element-wise common prefix of p and q.
func sharedLen(p, q Path) int {
	i := 0
	for i < len(p) && i < len(q) && p[i] == q[i] {
		i++
	}
	return i
}

// TestCompareFromMatchesCompare: skipping any valid shared prefix changes
// nothing, including for paths that share backing memory (Arena.Extend).
func TestCompareFromMatchesCompare(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	var a Arena
	for trial := 0; trial < 20000; trial++ {
		p, q := sharedPair(r)
		if trial%4 == 0 && len(p) > 0 {
			p = a.Copy(p)
			q = a.Extend(p, randomPath(r, 1)[0])
		}
		want := Compare(p, q)
		for i := 0; i <= sharedLen(p, q); i++ {
			if got := CompareFrom(p, q, i); got != want {
				t.Fatalf("CompareFrom(%v, %v, %d) = %d, Compare = %d", p, q, i, got, want)
			}
		}
	}
}

// TestRegionCompareFromMatchesRegionCompare: the same for region
// classification, with r a structural path (the root or a Major-ending
// path) and i any length up to the shared prefix and len(r).
func TestRegionCompareFromMatchesRegionCompare(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	for trial := 0; trial < 20000; trial++ {
		id, q := sharedPair(r)
		if len(id) == 0 {
			continue
		}
		var region Path
		if len(q) > 0 {
			region = q.StripLastDis()
		}
		want := RegionCompare(id, region)
		for i := 0; i <= sharedLen(id, region); i++ {
			if got := RegionCompareFrom(id, region, i); got != want {
				t.Fatalf("RegionCompareFrom(%v, %v, %d) = %d, RegionCompare = %d", id, region, i, got, want)
			}
		}
	}
}
