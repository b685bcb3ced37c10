// Package doctree implements the extended binary tree that backs a Treedoc
// document (Section 3 of the ICDCS 2009 paper): major nodes whose contents
// are disambiguated mini-nodes, with children hanging both off major nodes
// (plain path elements) and off individual mini-nodes (disambiguated path
// elements).
//
// The tree is simultaneously the identifier space and the storage layer. It
// supports the paper's mixed representation (Section 4.2): quiescent
// subtrees may be held as flat atom arrays with zero per-atom metadata and
// are exploded back into canonical tree form lazily when a path is applied
// to them.
//
// doctree is a single-replica data structure with no concurrency control of
// its own; internal/core layers CRDT operation semantics on top, and the
// public treedoc package adds locking.
package doctree

import (
	"fmt"

	"github.com/treedoc/treedoc/internal/ident"
)

// Node is a major node: one position of the binary identifier tree. Its
// contents are mini-nodes ordered by disambiguator. Children reached by
// plain path elements hang off the node itself (left, right); children
// reached by disambiguated elements hang off the individual mini-nodes.
//
// A node with a non-nil flat slice is a flattened region (Section 4.2): it
// stores its whole subtree's live atoms as a plain array with no metadata,
// and has no minis or children until a path walk explodes it.
// Field order is cache-conscious: the first 64 bytes hold exactly what the
// two hot per-edit loops touch — the count-guided descent (left, right,
// minis, live) and the counter climb (parent, live, nodes) — so each level
// of a walk or bubble stays within one cache line of the node. Occasional
// fields (tombstone and empty-slot counters, flatten bookkeeping) fill the
// second line; bubble writes them only when their delta is non-zero, so
// ordinary inserts dirty a single line per ancestor. Nodes are bump-chunk
// allocated (see Tree.nodeChunk) and 128 bytes long, keeping the split
// aligned.
type Node struct {
	parent      *Node   // node containing the slot we hang from; nil at root
	left, right *Node   // major child slots
	minis       []*Mini // sorted by disambiguator
	live        int     // live atoms in this subtree, including flat content
	nodes       int     // tree nodes in this subtree (flat regions count as 0)

	dead    int      // tombstone mini-nodes in this subtree
	emptyN  int      // empty (reusable-slot) nodes in this subtree
	lastMod int64    // latest revision that edited at this node (see bubble)
	pmini   *Mini    // mini of parent we hang from; nil = parent's major slot
	flat    []string // non-nil: flattened subtree content (leaf region)
	bit     uint8    // which side of the parent slot
}

// Mini is a mini-node: one atom slot inside a major node, identified by its
// disambiguator (Section 3.1). A dead mini is a tombstone (SDIS) or an
// awaiting-discard placeholder (UDIS); its atom is gone but the identifier
// remains allocated.
type Mini struct {
	owner *Node
	dis   ident.Dis
	atom  string
	dead  bool

	left, right *Node
}

// Dis returns the mini-node's disambiguator.
func (m *Mini) Dis() ident.Dis { return m.dis }

// Atom returns the mini-node's atom ("" once dead).
func (m *Mini) Atom() string { return m.atom }

// Dead reports whether the mini-node is a tombstone.
func (m *Mini) Dead() bool { return m.dead }

// Tree is a Treedoc document tree. The zero value is not usable; call New.
type Tree struct {
	root   *Node
	height int   // max depth of any node (root = 0)
	rev    int64 // current revision stamp for lastMod bookkeeping

	// Walk cache: the identifier and mini-node of the last successful
	// root-to-leaf walk. Consecutive operations on nearby identifiers (an
	// insert run, an insert followed by its delete) share long path
	// prefixes, so the next walk resumes from the deepest shared slot
	// instead of descending from the root. Any structural removal (prune,
	// flatten) drops the cache; see cacheDrop call sites.
	ckID   ident.Path
	ckMini *Mini

	// Chunked node and mini allocation: tree structure is built from bump
	// blocks instead of individual heap objects, so deep-chain creation
	// (the naive strategy adds one node per atom) costs one allocation per
	// chunk, and consecutively created nodes — which are exactly the
	// parent chains the count climbs traverse — sit adjacent in memory.
	// Chunks are abandoned to the garbage collector when full; a pruned
	// node pins at most its own chunk.
	nodeChunk []Node
	miniChunk []Mini

	// slotPrefix is FreeMiniBetween's search path buffer, reused across
	// searches so that a search allocates only the identifier it returns.
	slotPrefix ident.Path
}

const (
	nodeChunkLen = 128
	miniChunkLen = 256
)

// newNode allocates a node from the tree's bump chunk.
func (t *Tree) newNode(parent *Node, pmini *Mini, bit uint8) *Node {
	if len(t.nodeChunk) == cap(t.nodeChunk) {
		t.nodeChunk = make([]Node, 0, nodeChunkLen)
	}
	t.nodeChunk = append(t.nodeChunk, Node{parent: parent, pmini: pmini, bit: bit})
	return &t.nodeChunk[len(t.nodeChunk)-1]
}

// insertMini adds a chunk-allocated mini with disambiguator d to n in sorted
// position and returns it. The caller must ensure d is not already present.
func (t *Tree) insertMini(n *Node, d ident.Dis) *Mini {
	if len(t.miniChunk) == cap(t.miniChunk) {
		t.miniChunk = make([]Mini, 0, miniChunkLen)
	}
	t.miniChunk = append(t.miniChunk, Mini{owner: n, dis: d})
	return n.placeMini(&t.miniChunk[len(t.miniChunk)-1])
}

// insertMini is the chunk-less form for builders without a tree handle
// (canonical explosion).
func (n *Node) insertMini(d ident.Dis) *Mini {
	return n.placeMini(&Mini{owner: n, dis: d})
}

// placeMini links m into n's mini list in disambiguator order.
func (n *Node) placeMini(m *Mini) *Mini {
	i := 0
	for i < len(n.minis) && n.minis[i].dis.Compare(m.dis) < 0 {
		i++
	}
	n.minis = append(n.minis, nil)
	copy(n.minis[i+1:], n.minis[i:])
	n.minis[i] = m
	return m
}

// cacheWalk records a completed walk to mini m at identifier p. The
// identifier is copied into a tree-owned buffer, so callers may reuse p.
// Callers must have validated p (every walk does): cache-resumed walks
// validate only the elements beyond the shared prefix, which is sound
// precisely because everything cached here is known well-formed.
func (t *Tree) cacheWalk(p ident.Path, m *Mini) {
	t.ckID = append(t.ckID[:0], p...)
	t.ckMini = m
}

// cacheWalkFrom is cacheWalk for walks that resumed from the cache at depth
// skip: resumeSlot verified ckID[:skip] == p[:skip] element-wise and nothing
// rewrites ckID mid-walk, so only the suffix needs copying. Consecutive
// edits in one region share almost their whole identifier, making this the
// common case an O(1)-ish cache update instead of an O(depth) copy. If the
// cache was dropped mid-walk the prefix guarantee is gone and the whole
// identifier is copied.
func (t *Tree) cacheWalkFrom(p ident.Path, m *Mini, skip int) {
	if t.ckMini == nil {
		skip = 0
	}
	t.ckID = append(t.ckID[:skip], p[skip:]...)
	t.ckMini = m
}

// cacheDrop invalidates the walk cache. It must be called before any
// mini-node or node is detached from the tree (the cached chain climbs
// parent pointers).
func (t *Tree) cacheDrop() { t.ckMini = nil }

// resumeSlot returns the deepest walk slot shared between p and the cached
// last walk, plus the number of elements of p already consumed by it.
// Exact-prefix element equality guarantees the cached chain reaches the
// identical slot; the chain's nodes are materialised (never flat), so the
// skipped elements need no explosion checks.
func (t *Tree) resumeSlot(p ident.Path) (slot, int) {
	m := t.ckMini
	if m == nil {
		return slot{node: t.root}, 0
	}
	last := t.ckID
	max := len(p)
	if len(last) < max {
		max = len(last)
	}
	j := 0
	for j < max && p[j] == last[j] {
		j++
	}
	if j == 0 {
		return slot{node: t.root}, 0
	}
	// Climb from the cached mini's owner (at depth len(last)) to the node at
	// depth j, remembering the node below it on the chain: if element j-1
	// selects a mini, that selection is the below node's parent mini (or the
	// cached mini itself when j is the full cached depth).
	n := m.owner
	var below *Node
	for d := len(last); d > j; d-- {
		below = n
		n = n.parent
	}
	if p[j-1].Kind == ident.Major {
		return slot{node: n}, j
	}
	if below == nil {
		return slot{node: n, mini: m}, j
	}
	return slot{node: n, mini: below.pmini}, j
}

// New returns an empty document tree.
func New() *Tree {
	return &Tree{root: &Node{}}
}

// Len returns the number of live atoms in the document.
func (t *Tree) Len() int { return t.root.live }

// Height returns the maximum node depth ever materialised (root = 0). It is
// maintained as a monotonic maximum between structural clean-ups; Flatten
// recomputes it.
func (t *Tree) Height() int { return t.height }

// Rev returns the current revision stamp.
func (t *Tree) Rev() int64 { return t.rev }

// AdvanceRev moves the revision clock forward; subsequent edits stamp
// subtrees with the new revision. The cold-subtree heuristics compare
// against these stamps.
func (t *Tree) AdvanceRev() { t.rev++ }

// child returns the indicated major child slot.
func (n *Node) child(bit uint8) *Node {
	if bit == 0 {
		return n.left
	}
	return n.right
}

func (n *Node) setChild(bit uint8, c *Node) {
	if bit == 0 {
		n.left = c
	} else {
		n.right = c
	}
}

func (m *Mini) child(bit uint8) *Node {
	if bit == 0 {
		return m.left
	}
	return m.right
}

func (m *Mini) setChild(bit uint8, c *Node) {
	if bit == 0 {
		m.left = c
	} else {
		m.right = c
	}
}

// findMini returns the mini with disambiguator d, or nil.
func (n *Node) findMini(d ident.Dis) *Mini {
	for _, m := range n.minis {
		if m.dis == d {
			return m
		}
	}
	return nil
}

// depth returns the node's depth (root = 0).
func (n *Node) depth() int {
	d := 0
	for p := n.parent; p != nil; p = p.parent {
		d++
	}
	return d
}

// empty reports whether the node has no contents at all: no minis, no flat
// region. Empty nodes are the free identifier slots reused by the balanced
// allocation strategy (Section 4.1).
func (n *Node) empty() bool {
	return len(n.minis) == 0 && n.flat == nil
}

// PathToMini returns the position identifier of mini-node m.
func PathToMini(m *Mini) ident.Path {
	return AppendPathToMini(nil, m)
}

// AppendPathToMini appends the position identifier of mini-node m to dst and
// returns the extended path. The identifier length is known from the node
// chain, so the append is a single exact-size operation: this is the
// allocation-lean form used by the hot paths (identifier queries dominate the
// replay profile otherwise).
func AppendPathToMini(dst ident.Path, m *Mini) ident.Path {
	d := 0
	for n := m.owner; n != nil && n.parent != nil; n = n.parent {
		d++
	}
	base := len(dst)
	if cap(dst) < base+d {
		grown := make(ident.Path, base+d)
		copy(grown, dst)
		dst = grown
	} else {
		dst = dst[:base+d]
	}
	i := base + d - 1
	sel := m
	for n := m.owner; n != nil && n.parent != nil; n = n.parent {
		if sel != nil {
			dst[i] = ident.M(n.bit, sel.dis)
		} else {
			dst[i] = ident.J(n.bit)
		}
		sel = n.pmini
		i--
	}
	return dst
}

// PathToNode returns the structural path of major node n (ending in a Major
// element). The root yields the empty path.
func PathToNode(n *Node) ident.Path {
	if n.parent == nil {
		return ident.Path{}
	}
	d := 0
	for cur := n; cur != nil && cur.parent != nil; cur = cur.parent {
		d++
	}
	p := make(ident.Path, d)
	i := d - 1
	sel := (*Mini)(nil)
	for cur := n; cur != nil && cur.parent != nil; cur = cur.parent {
		if sel != nil {
			p[i] = ident.M(cur.bit, sel.dis)
		} else {
			p[i] = ident.J(cur.bit)
		}
		sel = cur.pmini
		i--
	}
	return p
}

// bubbleCounts adjusts live atom, node and tombstone counts from n up to
// the root and stamps n's lastMod with the tree's current revision.
func (t *Tree) bubbleCounts(n *Node, dLive, dNodes int) {
	t.bubble(n, dLive, dNodes, 0)
}

// bubble climbs to the root applying the count deltas. lastMod is stamped
// only on n itself — the edit point — not the whole ancestor chain: subtree
// recency is the maximum stamp over the subtree, which coldWalk computes
// during its own traversal. Keeping the climb to the first-line counters
// (and skipping the tombstone counter when unchanged) means an ordinary
// insert dirties one cache line per ancestor instead of two, and the climb
// is the single hottest write loop of a deep-tree replay.
func (t *Tree) bubble(n *Node, dLive, dNodes, dDead int) {
	if n == nil {
		return
	}
	n.lastMod = t.rev
	if dDead == 0 {
		for ; n != nil; n = n.parent {
			n.live += dLive
			n.nodes += dNodes
		}
		return
	}
	for ; n != nil; n = n.parent {
		n.live += dLive
		n.nodes += dNodes
		n.dead += dDead
	}
}

// bubbleEmpty adjusts the empty-slot counters from n to the root. The
// free-slot search prunes subtrees with emptyN == 0, which keeps
// allocation fast in tombstone-dense documents.
func bubbleEmpty(n *Node, d int) {
	for ; n != nil; n = n.parent {
		n.emptyN += d
	}
}

// bubbleAll adjusts every counter from n to the root in one climb and stamps
// n's lastMod. The edit fast paths accumulate their whole delta set and climb
// once; the equivalent sequence of bubble/bubbleEmpty calls would walk the
// ancestor chain per delta, which dominates deep-tree edit profiles. Like
// bubble, the climb writes the second-line counters only when they change.
func (t *Tree) bubbleAll(n *Node, dLive, dNodes, dDead, dEmpty int) {
	if n == nil {
		return
	}
	n.lastMod = t.rev
	if dDead == 0 && dEmpty == 0 {
		for ; n != nil; n = n.parent {
			n.live += dLive
			n.nodes += dNodes
		}
		return
	}
	for ; n != nil; n = n.parent {
		n.live += dLive
		n.nodes += dNodes
		n.dead += dDead
		n.emptyN += dEmpty
	}
}

// errNotFound is returned by lookups of identifiers with no materialised
// mini-node.
var errNotFound = fmt.Errorf("doctree: identifier not found")

// IsNotFound reports whether err is the not-found lookup error.
func IsNotFound(err error) bool { return err == errNotFound }
