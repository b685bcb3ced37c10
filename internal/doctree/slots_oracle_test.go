package doctree

import (
	"fmt"

	"github.com/treedoc/treedoc/internal/ident"
)

// oracleSlotSearch is the free-slot walk with full comparisons: every visit
// compares the whole region path against both bounds (RegionCompare, then
// Between for an empty node). It is the reference the incremental search of
// slots.go must match identifier for identifier and visit for visit.
type oracleSlotSearch struct {
	p, f   ident.Path
	prefix ident.Path
	budget int
}

func (s *oracleSlotSearch) walk(n *Node) *Node {
	if n == nil || n.flat != nil || n.emptyN == 0 || s.budget <= 0 {
		return nil
	}
	s.budget--
	if s.p != nil && ident.RegionCompare(s.p, s.prefix) > 0 {
		return nil
	}
	if s.f != nil && ident.RegionCompare(s.f, s.prefix) < 0 {
		return nil
	}
	if got := s.into(n.left, ident.J(0)); got != nil {
		return got
	}
	if n.parent != nil && n.empty() {
		last := len(s.prefix) - 1
		saved := s.prefix[last]
		s.prefix[last] = ident.M(saved.Bit, ident.Canonical)
		ok := ident.Between(s.p, s.prefix, s.f)
		s.prefix[last] = saved
		if ok {
			return n
		}
	}
	for _, m := range n.minis {
		if len(s.prefix) == 0 {
			break
		}
		last := len(s.prefix) - 1
		saved := s.prefix[last]
		s.prefix[last] = ident.M(saved.Bit, m.dis)
		if got := s.into(m.left, ident.J(0)); got != nil {
			return got
		}
		if got := s.into(m.right, ident.J(1)); got != nil {
			return got
		}
		s.prefix[last] = saved
	}
	return s.into(n.right, ident.J(1))
}

func (s *oracleSlotSearch) into(n *Node, e ident.Elem) *Node {
	s.prefix = append(s.prefix, e)
	if got := s.walk(n); got != nil {
		return got
	}
	s.prefix = s.prefix[:len(s.prefix)-1]
	return nil
}

// DiffFreeSlotOracle runs FreeMiniBetween and the oracle walk for the
// bounds (p, f) and describes the first disagreement — in the identifier
// returned or in the visit budget spent — or returns "" if they agree.
// External tests build their trees through internal/core and check them
// with this hook.
func (t *Tree) DiffFreeSlotOracle(p, f ident.Path) string {
	o := oracleSlotSearch{p: p, f: f, budget: 16*t.height + 64}
	var want ident.Path
	if o.walk(t.root) != nil {
		want = o.prefix.Clone()
		want[len(want)-1] = ident.M(want[len(want)-1].Bit, ident.Dis{Site: 9})
	}
	got := t.FreeMiniBetween(new(ident.Arena), p, f, ident.Dis{Site: 9})
	s := t.freeSlot(p, f)
	switch {
	case !got.Equal(want) || (got == nil) != (want == nil):
		return fmt.Sprintf("FreeMiniBetween(%v, %v) = %v, oracle %v", p, f, got, want)
	case s.budget != o.budget:
		return fmt.Sprintf("FreeMiniBetween(%v, %v) left budget %d, oracle %d", p, f, s.budget, o.budget)
	}
	return ""
}
