package doctree_test

import (
	"testing"

	"github.com/treedoc/treedoc/internal/core"
	"github.com/treedoc/treedoc/internal/doctree"
	"github.com/treedoc/treedoc/internal/ident"
)

// typedTree returns a tree built by n Balanced appends, and the last
// identifier typed.
func typedTree(t *testing.T, n int) (*doctree.Tree, ident.Path) {
	t.Helper()
	doc, err := core.NewDocument(core.Config{Site: 1})
	if err != nil {
		t.Fatal(err)
	}
	var last ident.Path
	for i := 0; i < n; i++ {
		op, err := doc.InsertAt(doc.Len(), "a")
		if err != nil {
			t.Fatal(err)
		}
		last = op.ID
	}
	return doc.Tree(), last
}

// TestFreeSearchNoSlotAllocs guards the search's reused path buffer: once
// warmed up, a search that finds no slot does not touch the heap.
func TestFreeSearchNoSlotAllocs(t *testing.T) {
	tr, _ := typedTree(t, 2000)
	first, err := tr.IDAt(0)
	if err != nil {
		t.Fatal(err)
	}
	second, err := tr.IDAt(1)
	if err != nil {
		t.Fatal(err)
	}
	var a ident.Arena
	got := testing.AllocsPerRun(200, func() {
		if tr.FreeMiniBetween(&a, first, second, ident.Dis{Site: 2}) != nil {
			t.Fatal("unexpected free slot between adjacent atoms")
		}
	})
	if got != 0 {
		t.Errorf("FreeMiniBetween finding no slot: %.1f allocs/op, want 0", got)
	}
}

// TestBalancedNewIDAllocs guards Balanced.NewID's allocation contract: the
// identifiers it returns (found slots and grown identifiers) and the
// reserved region's path come from the arena, and the reserved nodes from
// the tree's chunks, so a steady run of appends averages under one heap
// allocation per call. Nothing is inserted, so each call takes the next
// reserved slot after the previous one, and growth recurs once a region is
// used up.
func TestBalancedNewIDAllocs(t *testing.T) {
	tr, p := typedTree(t, 200)
	var a ident.Arena
	grows := 0
	got := testing.AllocsPerRun(2000, func() {
		h := tr.Height()
		p = core.Balanced{}.NewID(tr, &a, p, nil, ident.Dis{Site: 1})
		if tr.Height() > h {
			grows++
		}
	})
	if grows < 5 {
		t.Fatalf("only %d growths in 2000 calls; the run does not exercise Reserve", grows)
	}
	if got >= 1 {
		t.Errorf("Balanced.NewID: %.0f allocs/op averaged, want < 1", got)
	}
}
