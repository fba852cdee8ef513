package regalloc

import "ltsp/internal/ir"

// AllocateRef exposes the reference allocator to the external
// differential test.
var AllocateRef = allocateRef

// AllocMap collects an assignment's allocations into a map.
func AllocMap(a *Assignment) map[ir.Reg]Alloc {
	out := map[ir.Reg]Alloc{}
	a.Each(func(r ir.Reg, al Alloc) { out[r] = al })
	return out
}
