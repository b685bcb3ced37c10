package doctree

import (
	"fmt"

	"github.com/treedoc/treedoc/internal/ident"
)

// FreeMiniBetween searches for the first empty node, in infix order, whose
// mini position lies strictly between identifiers p and f (nil bounds mean
// document start/end). It returns the identifier a new mini with
// disambiguator d would take there, allocated from a, or nil if no reusable
// slot exists.
//
// Empty nodes arise from balanced growth (Section 4.1 reserves a grown
// subtree whose positions are consumed by subsequent inserts: "the
// following atoms would consecutively use the PosIDs for the empty nodes in
// the sub-tree") and from UDIS discarding. The search prunes subtrees whose
// identifier region lies entirely outside (p, f), carries its path
// incrementally (no per-node path reconstruction), and bounds its node
// visits so a single allocation never degrades to a whole-tree scan: a
// reusable slot beyond the budget is simply treated as absent and the
// caller falls back to fresh allocation. The search path lives in a
// tree-owned buffer, so a search that finds nothing does not allocate.
func (t *Tree) FreeMiniBetween(a *ident.Arena, p, f ident.Path, d ident.Dis) ident.Path {
	s := t.freeSlot(p, f)
	if s.found == nil {
		return nil
	}
	id := a.Copy(s.prefix)
	id[len(id)-1] = ident.M(id[len(id)-1].Bit, d)
	return id
}

// freeSlot runs the free-slot search and returns its final state: the found
// node (nil if none), its structural path in prefix (valid until the next
// search), and the unspent budget.
//
//treedoc:noalloc
func (t *Tree) freeSlot(p, f ident.Path) slotSearch {
	s := slotSearch{p: p, f: f, prefix: t.slotPrefix[:0], budget: 16*t.height + 64}
	s.found = s.walk(t.root, p != nil, f != nil)
	t.slotPrefix = s.prefix[:0]
	return s
}

// slotSearch is the in-order free-slot walk. prefix always holds the
// structural path of the node being visited (empty at the root); when the
// walk succeeds it holds the found node's path.
type slotSearch struct {
	p, f   ident.Path
	prefix ident.Path
	budget int
	found  *Node
}

// walk searches n's subtree in infix order, returning the first empty node
// whose mini position lies strictly between the bounds.
//
// pIn and fIn say whether p and f lie inside the region of n's parent; at
// the root they say whether the bound is non-nil, the root's region being
// the whole identifier space.
// A bound inside that region agrees with n's path on every element but the
// last two, so each comparison below starts there and costs O(1) instead of
// O(depth). A bound outside it, and not pruned there, sorts before (p) or
// after (f) the parent's whole region, which is an interval containing n's
// subtree: it constrains nothing below and is never compared again.
//
//treedoc:noalloc
func (s *slotSearch) walk(n *Node, pIn, fIn bool) *Node {
	if n == nil || n.flat != nil || n.emptyN == 0 || s.budget <= 0 {
		return nil
	}
	s.budget--
	k := len(s.prefix)
	from := max(k-2, 0) // elements shared with the parent's region path
	// Prune subtrees entirely outside the open interval.
	if pIn {
		c := ident.RegionCompareFrom(s.p, s.prefix, from)
		if c > 0 {
			return nil // everything in n's region sorts <= p
		}
		pIn = c == 0
	}
	if fIn {
		c := ident.RegionCompareFrom(s.f, s.prefix, from)
		if c < 0 {
			return nil // everything in n's region sorts >= f
		}
		fIn = c == 0
	}
	if got := s.into(n.left, ident.J(0), pIn, fIn); got != nil {
		return got
	}
	if n.parent != nil && n.empty() {
		// The would-be mini position: the node's identifier with a mini
		// selection. Disambiguators only order minis within one node and n
		// has none, so any disambiguator gives the same betweenness. A bound
		// inside n's region shares the first k-1 elements with it.
		last := k - 1
		saved := s.prefix[last]
		s.prefix[last] = ident.M(saved.Bit, ident.Canonical)
		ok := (!pIn || ident.CompareFrom(s.p, s.prefix, last) < 0) &&
			(!fIn || ident.CompareFrom(s.prefix, s.f, last) < 0)
		s.prefix[last] = saved
		if ok {
			return n
		}
	}
	for _, m := range n.minis {
		if k == 0 {
			break // the root holds no minis
		}
		// Descend through the mini: the entry element gains its dis.
		last := k - 1
		saved := s.prefix[last]
		s.prefix[last] = ident.M(saved.Bit, m.dis)
		if got := s.into(m.left, ident.J(0), pIn, fIn); got != nil {
			return got
		}
		if got := s.into(m.right, ident.J(1), pIn, fIn); got != nil {
			return got
		}
		s.prefix[last] = saved
	}
	return s.into(n.right, ident.J(1), pIn, fIn)
}

// into pushes the child element, walks the child, and pops on failure. On
// success the prefix is left pointing at the found node.
func (s *slotSearch) into(n *Node, e ident.Elem, pIn, fIn bool) *Node {
	s.prefix = append(s.prefix, e)
	if got := s.walk(n, pIn, fIn); got != nil {
		return got
	}
	s.prefix = s.prefix[:len(s.prefix)-1]
	return nil
}

// Reserve materialises the complete binary subtree of the given number of
// levels rooted at the node designated by the structural path (creating the
// node itself if needed), implementing the balanced growth of Section 4.1:
// "grow the height h of the tree by ⌈log2(h)⌉+1… Thereafter, new PosIDs
// would be generated by using empty position in the tree of identifiers"
// (the empty nodes of Figure 5). The reserved slots are found by
// FreeMiniBetween as subsequent inserts arrive.
func (t *Tree) Reserve(path ident.Path, levels int) error {
	if len(path) == 0 || path[len(path)-1].Kind != ident.Major {
		return fmt.Errorf("doctree: reserve needs a structural path, got %v", path)
	}
	cur := slot{node: t.root}
	depth := 0
	for _, e := range path {
		if cur.node.flat != nil {
			t.explodeNode(cur.node)
		}
		depth++
		next := cur.child(e.Bit)
		if next == nil {
			next = t.newNode(cur.node, cur.mini, e.Bit)
			cur.setChild(e.Bit, next)
			t.bubbleCounts(next, 0, 1)
			bubbleEmpty(next, +1)
			if depth > t.height {
				t.height = depth
			}
		} else if next.flat != nil && e.Kind == ident.Mini {
			t.explodeNode(next)
		}
		if e.Kind == ident.Major {
			cur = slot{node: next}
			continue
		}
		m := next.findMini(e.Dis)
		if m == nil {
			if len(next.minis) == 0 {
				bubbleEmpty(next, -1)
			}
			m = t.insertMini(next, e.Dis)
			m.dead = true
			t.bubble(next, 0, 0, +1)
		}
		cur = slot{node: next, mini: m}
	}
	t.reserveBelow(cur.node, depth, levels-1)
	return nil
}

// reserveBelow materialises the complete major-child subtree of n down to
// the given remaining levels.
func (t *Tree) reserveBelow(n *Node, depth, levels int) {
	if levels <= 0 || n.flat != nil {
		return
	}
	for _, bit := range []uint8{0, 1} {
		c := n.child(bit)
		if c == nil {
			c = t.newNode(n, nil, bit)
			n.setChild(bit, c)
			t.bubbleCounts(c, 0, 1)
			bubbleEmpty(c, +1)
			if depth+1 > t.height {
				t.height = depth + 1
			}
		}
		t.reserveBelow(c, depth+1, levels-1)
	}
}
