package regalloc

// AllocateRef exposes the reference allocator to the external
// differential test.
var AllocateRef = allocateRef
