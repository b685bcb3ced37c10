package doctree_test

import (
	"math/rand"
	"testing"

	"github.com/treedoc/treedoc/internal/core"
	"github.com/treedoc/treedoc/internal/ident"
)

// TestFreeSearchMatchesOracle checks the incremental free-slot search
// against the full-compare oracle walk (slots_oracle_test.go) on seeded
// random trees: SDIS and UDIS edits through a Balanced replica (growths,
// insert runs, tombstones and discards), reserved subtrees, flattened
// regions and deep tombstone chains from repeated insert-delete at one gap.
// Bounds are nil, live identifiers, previously found slots, perturbations of
// live identifiers and random paths, in either order. The two searches must
// return the same identifier and spend the same visit budget.
func TestFreeSearchMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		mode := ident.SDIS
		if seed%2 == 0 {
			mode = ident.UDIS
		}
		doc, err := core.NewDocument(core.Config{Site: 1, Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 6; round++ {
			for i := 0; i < 60; i++ {
				if err := randomEdit(rng, doc); err != nil {
					t.Fatalf("seed %d round %d: edit: %v", seed, round, err)
				}
				doc.EndRevision()
			}
			if err := doc.Check(); err != nil {
				t.Fatalf("seed %d round %d: %v", seed, round, err)
			}
			tr := doc.Tree()
			var found ident.Path
			for q := 0; q < 150; q++ {
				p, f := randomBound(rng, doc, found), randomBound(rng, doc, found)
				if rng.Intn(4) != 0 && p != nil && f != nil && ident.Compare(p, f) > 0 {
					p, f = f, p
				}
				if diff := tr.DiffFreeSlotOracle(p, f); diff != "" {
					t.Fatalf("seed %d round %d query %d (height %d): %s", seed, round, q, tr.Height(), diff)
				}
				if id := tr.FreeMiniBetween(new(ident.Arena), p, f, ident.Dis{Site: 3}); id != nil {
					found = id
				}
			}
		}
	}
}

// randomEdit applies one random edit shape to doc.
func randomEdit(rng *rand.Rand, doc *core.Document) error {
	n := doc.Len()
	switch r := rng.Intn(100); {
	case r < 35 || n == 0:
		_, err := doc.InsertAt(rng.Intn(n+1), "a")
		return err
	case r < 45:
		atoms := make([]string, 2+rng.Intn(10))
		for i := range atoms {
			atoms[i] = "r"
		}
		_, err := doc.InsertRunAt(rng.Intn(n+1), atoms)
		return err
	case r < 55:
		// Typing at the end: the Balanced growth path.
		for i := 5 + rng.Intn(25); i > 0; i-- {
			if _, err := doc.InsertAt(doc.Len(), "t"); err != nil {
				return err
			}
		}
	case r < 75:
		_, err := doc.DeleteAt(rng.Intn(n))
		return err
	case r < 83:
		// Insert-delete at one gap: under SDIS every re-insert collides with
		// the previous tombstone and allocates deeper, building a chain.
		at := rng.Intn(n + 1)
		for i := 20 + rng.Intn(60); i > 0; i-- {
			if _, err := doc.InsertAt(at, "x"); err != nil {
				return err
			}
			if _, err := doc.DeleteAt(at); err != nil {
				return err
			}
		}
	case r < 92:
		id, err := doc.IDAt(rng.Intn(n))
		if err != nil {
			return err
		}
		region := append(id.StripLastDis(), ident.J(uint8(rng.Intn(2))))
		return doc.Tree().Reserve(region, 1+rng.Intn(3))
	case r < 98:
		if cold := doc.ColdestSubtree(1, 2); cold != nil {
			return doc.FlattenSubtree(cold)
		}
	default:
		return doc.FlattenAll()
	}
	return nil
}

// randomBound draws a search bound: nil, a live identifier, the last slot
// found, a perturbed live identifier, or a random path.
func randomBound(rng *rand.Rand, doc *core.Document, found ident.Path) ident.Path {
	n := doc.Len()
	r := rng.Intn(10)
	if r == 0 || n == 0 {
		return nil
	}
	if r == 1 && found != nil {
		return found
	}
	if r == 2 {
		return randomPath(rng, 2+doc.Tree().Height())
	}
	id, err := doc.IDAt(rng.Intn(n))
	if err != nil {
		panic(err)
	}
	if r < 6 {
		return id
	}
	id = id.Clone()
	switch rng.Intn(4) {
	case 0: // a descendant
		for i := 1 + rng.Intn(3); i > 0; i-- {
			id = append(id, randomElem(rng, i == 1))
		}
	case 1: // an ancestor-side identifier
		id = id[:1+rng.Intn(len(id))]
		id[len(id)-1] = randomElem(rng, true)
	case 2: // the sibling direction
		last := &id[len(id)-1]
		last.Bit ^= 1
	default: // another mini of the same node
		id[len(id)-1] = ident.M(id[len(id)-1].Bit, randomDis(rng))
	}
	return id
}

// randomPath draws an atom identifier of depth 1..maxDepth from a small
// alphabet, so shared prefixes with the tree's paths are common.
func randomPath(rng *rand.Rand, maxDepth int) ident.Path {
	depth := 1 + rng.Intn(maxDepth)
	p := make(ident.Path, depth)
	for i := range p {
		p[i] = randomElem(rng, i == depth-1)
	}
	return p
}

func randomElem(rng *rand.Rand, mini bool) ident.Elem {
	bit := uint8(rng.Intn(2))
	if mini || rng.Intn(4) == 0 {
		return ident.M(bit, randomDis(rng))
	}
	return ident.J(bit)
}

func randomDis(rng *rand.Rand) ident.Dis {
	switch rng.Intn(3) {
	case 0:
		return ident.Canonical
	case 1:
		return ident.Dis{Site: ident.SiteID(1 + rng.Intn(3))}
	}
	return ident.Dis{Counter: uint32(1 + rng.Intn(3)), Site: ident.SiteID(1 + rng.Intn(3))}
}
