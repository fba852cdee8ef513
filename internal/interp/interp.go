// Package interp gives the IR executable semantics: an architectural state
// with Itanium-style rotating register files, predication (including
// cmp.unc clearing semantics, which pipelined kernels rely on to shut down
// stages during fill and drain), sparse byte-addressed memory, and the
// LC/EC counted-loop branches br.cloop and br.ctop.
//
// Rotation model: on every execution of br.ctop the register rename bases
// decrement, so the value in logical register X becomes visible as X+1 in
// the next kernel iteration. The stage predicate injected into p16 is 1
// while new source iterations start (LC > 0) and 0 while the pipeline
// drains.
//
// A loop-carried rotating value with a live-in initial value is placed one
// register above its blade base before the loop: the first consumer of
// source iteration 0 in stage s reads logical base+s+1 at kernel iteration
// s+1, i.e. after s rotations, which is where a pre-loop store to base+1
// has rotated to by then.
package interp

import (
	"encoding/binary"
	"math"

	"ltsp/internal/ir"
)

// Register file geometry (Itanium architectural).
const (
	NumGR   = 128
	NumFR   = 128
	NumPR   = 64
	RotBase = 32 // first rotating GR/FR
	RotPRLo = 16 // first rotating PR
	rotSize = 96 // rotating GR/FR region size
	rotPRSz = 48 // rotating PR region size (p16-p63)
)

// Memory is a sparse, little-endian, byte-addressed memory.
//
// A Memory can be forked copy-on-write over a read-only base (Fork): the
// fork is an overlay that reads the base's pages until it first stores to
// one, and then writes a private copy. One seeded data image can so back
// any number of simulations at once without ever being written, and a
// fork costs the same whatever the size of its base.
//
// A memory can also track runs (BeginRun, Replays): it then records the
// pages each run's loads read and the pages its stores changed, so a
// caller can tell whether a rerun of a deterministic program would read
// exactly what the run read.
type Memory struct {
	// pages holds m's pages; a fork's holds only those it has stored to
	// and, while it tracks runs, those it has read.
	pages map[int64]*page
	base  *Memory
	// cache is a direct-mapped cache of the pages loads read, by page
	// number; wp is the page the last store wrote (number wpn, bytes wb),
	// nil when empty. Successive accesses of a loop's streams mostly stay
	// on their pages.
	cache [pageCacheLines]cacheLine
	wpn   int64
	wp    *page
	wb    *[pageSize]byte
	// epoch numbers the tracked run since the last BeginRun (0: m does not
	// track); conflict records that the run changed a page it read.
	epoch    uint32
	conflict bool
	// slab holds page headers not yet handed out: they are allocated 64
	// at a time, so a new page costs one allocation, its bytes.
	slab []page
	// Reads counts load accesses, Writes store accesses (for tests).
	Reads, Writes int64
}

// page is one page as a memory sees it. b is nil for a page that holds
// only zeros because nothing was stored to it; own reports that b is the
// memory's to write in place (a fork's page starts out sharing its base's
// bytes). read and changed are the last tracked runs that read the page
// and that changed a byte of it.
type page struct {
	b             *[pageSize]byte
	own           bool
	read, changed uint32
}

type cacheLine struct {
	pn int64
	p  *page
}

const (
	pageSize       = 4096
	pageCacheLines = 16
)

// NewMemory returns an empty memory; all bytes read as zero.
func NewMemory() *Memory {
	return &Memory{pages: map[int64]*page{}}
}

// Fork returns a copy-on-write view of m: it reads as m does, and its
// stores go to private copies of the pages they touch, so neither m nor
// any other fork of m sees them. m must not be written once it has been
// forked; forks of one base may be used from different goroutines. Fork
// panics on a memory that is itself a fork, whose pages it could not
// keep apart from the fork's own later stores.
func (m *Memory) Fork() *Memory {
	if m.base != nil {
		panic("interp: Fork of a forked memory")
	}
	return &Memory{pages: map[int64]*page{}, base: m}
}

// BeginRun starts tracking a run: until the next BeginRun, m records the
// pages loads read and the pages stores change a byte of. It empties the
// page cache, so the run's first load of each page counts. Epochs skip 0
// when they wrap; a stamp left from 2³² runs earlier can only make
// Replays false. A forked base must not track runs: its tracked loads
// add to the page table its forks read.
func (m *Memory) BeginRun() {
	if m.epoch++; m.epoch == 0 {
		m.epoch = 1
	}
	m.conflict = false
	m.cache = [pageCacheLines]cacheLine{}
}

// Replays reports whether the run since BeginRun changed no page it
// read. A rerun of the same deterministic program from the same
// registers then loads exactly what the run loaded, stores exactly what
// it stored, and leaves m as the run left it.
func (m *Memory) Replays() bool { return m.epoch != 0 && !m.conflict }

// lookup returns page pn's bytes for reading past the page cache, or nil
// for a page of zeros. While m tracks runs, the page is marked read in
// m's own table.
func (m *Memory) lookup(pn int64) *[pageSize]byte {
	p := m.pages[pn]
	if m.epoch != 0 {
		if p == nil {
			p = m.newPage()
			if m.base != nil {
				if bp := m.base.pages[pn]; bp != nil {
					p.b = bp.b
				}
			}
			m.pages[pn] = p
		}
		p.read = m.epoch
		m.conflict = m.conflict || p.changed == m.epoch
	} else if p == nil && m.base != nil {
		p = m.base.pages[pn]
	}
	if p == nil {
		return nil
	}
	*m.line(pn) = cacheLine{pn, p}
	return p.b
}

// newPage returns a zero page header from m's slab.
func (m *Memory) newPage() *page {
	if len(m.slab) == 0 {
		m.slab = make([]page, 64)
	}
	p := &m.slab[0]
	m.slab = m.slab[1:]
	return p
}

// line returns page pn's page cache line. The index folds every nibble
// of pn, so streams at aligned bases take different lines, while 16
// consecutive pages still take 16 different lines.
func (m *Memory) line(pn int64) *cacheLine {
	h := uint64(pn)
	h ^= h >> 32
	h ^= h >> 16
	h ^= h >> 8
	h ^= h >> 4
	return &m.cache[h&(pageCacheLines-1)]
}

// bytes returns page pn's bytes for reading, or nil for a page of zeros.
func (m *Memory) bytes(pn int64) *[pageSize]byte {
	if l := m.line(pn); l.p != nil && l.pn == pn {
		return l.p.b
	}
	return m.lookup(pn)
}

// writable returns page pn's bytes for writing and makes it the store
// page.
func (m *Memory) writable(pn int64) *[pageSize]byte {
	if pn == m.wpn && m.wb != nil {
		return m.wb
	}
	return m.own(pn)
}

// own makes page pn m's to write, allocating it or copying the base's
// bytes on first write, and makes it the store page.
func (m *Memory) own(pn int64) *[pageSize]byte {
	p := m.pages[pn]
	if p == nil {
		p = m.newPage()
		if m.base != nil {
			if bp := m.base.pages[pn]; bp != nil {
				p.b = bp.b
			}
		}
		m.pages[pn] = p
		if l := m.line(pn); l.p != nil && l.pn == pn {
			l.p = p // it held the base's page
		}
	}
	if !p.own {
		b := new([pageSize]byte)
		if p.b != nil {
			*b = *p.b
		}
		p.b, p.own = b, true
	}
	m.wpn, m.wp, m.wb = pn, p, p.b
	return p.b
}

// noteStore marks the store page changed, while m tracks a run, when
// storing the low len(b) bytes of val over b changes one of them.
func (m *Memory) noteStore(b []byte, val uint64) {
	p := m.wp
	if p.changed == m.epoch {
		return
	}
	for i := range b {
		if b[i] != byte(val>>(8*i)) {
			p.changed = m.epoch
			m.conflict = m.conflict || p.read == m.epoch
			return
		}
	}
}

// Load reads size bytes (1, 2, 4 or 8) at addr, zero-extended.
func (m *Memory) Load(addr int64, size int) int64 {
	m.Reads++
	off := int(addr & (pageSize - 1))
	if off+size <= pageSize {
		p := m.bytes(addr >> 12)
		if p == nil {
			return 0
		}
		switch size {
		case 8:
			return int64(binary.LittleEndian.Uint64(p[off:]))
		case 4:
			return int64(binary.LittleEndian.Uint32(p[off:]))
		case 2:
			return int64(binary.LittleEndian.Uint16(p[off:]))
		case 1:
			return int64(p[off])
		}
	}
	var v uint64
	for i := 0; i < size; i++ {
		a := addr + int64(i)
		if p := m.bytes(a >> 12); p != nil {
			v |= uint64(p[a&(pageSize-1)]) << (8 * i)
		}
	}
	return int64(v)
}

// Store writes the low size bytes of val at addr.
func (m *Memory) Store(addr int64, size int, val int64) {
	m.Writes++
	if off := int(addr & (pageSize - 1)); off+size <= pageSize {
		b := m.writable(addr >> 12)[off:]
		if m.epoch != 0 {
			m.noteStore(b[:size], uint64(val))
		}
		switch size {
		case 8:
			binary.LittleEndian.PutUint64(b, uint64(val))
			return
		case 4:
			binary.LittleEndian.PutUint32(b, uint32(val))
			return
		case 2:
			binary.LittleEndian.PutUint16(b, uint16(val))
			return
		case 1:
			b[0] = byte(val)
			return
		}
	}
	// Crosses a page, or an odd size: byte by byte.
	for i := 0; i < size; i++ {
		a := addr + int64(i)
		b := m.writable(a >> 12)[a&(pageSize-1):]
		if m.epoch != 0 {
			m.noteStore(b[:1], uint64(val)>>(8*i))
		}
		b[0] = byte(uint64(val) >> (8 * i))
	}
}

// LoadF reads a float64 at addr.
func (m *Memory) LoadF(addr int64) float64 {
	return math.Float64frombits(uint64(m.Load(addr, 8)))
}

// StoreF writes a float64 at addr.
func (m *Memory) StoreF(addr int64, v float64) {
	m.Store(addr, 8, int64(math.Float64bits(v)))
}

// Snapshot returns a copy of all touched memory as a map from page number
// to page contents, for state comparison in tests. A fork's snapshot is
// its base's pages overlaid with its private ones.
func (m *Memory) Snapshot() map[int64][pageSize]byte {
	out := map[int64][pageSize]byte{}
	for _, mem := range []*Memory{m.base, m} {
		if mem == nil {
			continue
		}
		for pn, p := range mem.pages {
			if p.b != nil {
				out[pn] = *p.b
			}
		}
	}
	return out
}

// State is the architectural machine state.
type State struct {
	GR  [NumGR]int64
	FR  [NumFR]float64
	PR  [NumPR]bool
	LC  int64 // loop count application register
	EC  int64 // epilog count application register
	Mem *Memory

	// DataRotation controls whether br.ctop rotates the GR/FR rename
	// bases. It models the programmable rotating-region size of the
	// Itanium CFM (alloc ... sor): kernels generated by modulo variable
	// expansion set the rotating data region to zero and use r32+/f32+ as
	// plain registers, while the predicate region always rotates (stage
	// control). Default true.
	DataRotation bool

	// rrb holds the GR, FR and PR rename bases.
	rrb [3]int

	// Pending is the current issue group's deferred register writes.
	Pending []Write
}

// NewState returns a zeroed state with fresh memory. r0 stays 0, f0 = 0.0,
// f1 = 1.0 and p0 = true are maintained as architectural constants.
func NewState() *State { return NewStateOn(nil) }

// NewStateOn returns a zeroed state on mem, or on fresh memory when mem
// is nil.
func NewStateOn(mem *Memory) *State {
	if mem == nil {
		mem = NewMemory()
	}
	s := &State{Mem: mem, DataRotation: true}
	s.FR[1] = 1.0
	s.PR[0] = true
	return s
}

// RenameGR maps a logical GR number to its physical index under the
// current rotation.
func (s *State) RenameGR(n int) int {
	if n < RotBase {
		return n
	}
	return RotBase + (n-RotBase+s.rrb[0])%rotSize
}

// RenameFR maps a logical FR number to its physical index.
func (s *State) RenameFR(n int) int {
	if n < RotBase {
		return n
	}
	return RotBase + (n-RotBase+s.rrb[1])%rotSize
}

// RenamePR maps a logical PR number to its physical index.
func (s *State) RenamePR(n int) int {
	if n < RotPRLo {
		return n
	}
	return RotPRLo + (n-RotPRLo+s.rrb[2])%rotPRSz
}

func (s *State) readGR(r ir.Reg) int64   { return s.GR[s.RenameGR(r.N)] }
func (s *State) readFR(r ir.Reg) float64 { return s.FR[s.RenameFR(r.N)] }
func (s *State) readPR(r ir.Reg) bool    { return s.PR[s.RenamePR(r.N)] }
func (s *State) writeGR(r ir.Reg, v int64) {
	p := s.RenameGR(r.N)
	if p != 0 {
		s.GR[p] = v
	}
}
func (s *State) writeFR(r ir.Reg, v float64) {
	p := s.RenameFR(r.N)
	if p > 1 {
		s.FR[p] = v
	}
}
func (s *State) writePR(r ir.Reg, v bool) {
	p := s.RenamePR(r.N)
	if p != 0 {
		s.PR[p] = v
	}
}

// rotate decrements the rename bases (the value in logical X moves to
// logical X+1) and injects the new stage predicate into logical p16. With
// DataRotation off only the predicate file rotates.
func (s *State) rotate(inject bool) {
	if s.DataRotation {
		s.rrb[0] = (s.rrb[0] - 1 + rotSize) % rotSize
		s.rrb[1] = (s.rrb[1] - 1 + rotSize) % rotSize
	}
	s.rrb[2] = (s.rrb[2] - 1 + rotPRSz) % rotPRSz
	s.PR[s.RenamePR(RotPRLo)] = inject
}

// Ctop executes br.ctop: while LC > 0 a new source iteration starts
// (inject 1, branch taken); afterwards the pipeline drains for EC kernel
// iterations (inject 0). The registers rotate on every execution.
func (s *State) Ctop() (taken bool) {
	inject := false
	switch {
	case s.LC > 0:
		s.LC--
		inject = true
		taken = true
	case s.EC > 1:
		s.EC--
		taken = true
	case s.EC == 1:
		s.EC--
		taken = false
	default:
		taken = false
	}
	s.rotate(inject)
	return taken
}

// Wtop executes br.wtop for a kernel-only pipelined while loop: the
// branch is taken while the qualifying predicate — the validity of the
// oldest in-flight source iteration — is still set, and during the fill
// phase (when that slot holds no iteration yet) while EC counts down,
// exactly like the hardware's qp==0 path. The registers rotate on every
// execution and a 0 is injected into p16 (while loops compute their own
// validity chain in software).
func (s *State) Wtop(qp ir.Reg) (taken bool) {
	switch {
	case s.readPR(qp):
		taken = true
	case s.EC > 1:
		s.EC--
		taken = true
	default:
		if s.EC > 0 {
			s.EC--
		}
		taken = false
	}
	s.rotate(false)
	return taken
}

// Cloop executes br.cloop: branch while LC > 0, decrementing it. No
// rotation occurs.
func (s *State) Cloop() (taken bool) {
	if s.LC > 0 {
		s.LC--
		return true
	}
	return false
}

// ApplySetup writes the initial register values. It must be called before
// any rotation (logical and physical numbering coincide).
func (s *State) ApplySetup(inits []ir.RegInit) {
	for _, init := range inits {
		switch init.Reg.Class {
		case ir.ClassGR:
			s.writeGR(init.Reg, init.Val)
		case ir.ClassFR:
			s.writeFR(init.Reg, init.FVal)
		case ir.ClassPR:
			s.writePR(init.Reg, init.Val != 0)
		}
	}
}

// ReadReg returns the integer value of a GR or PR register (predicates as
// 0/1) under current rotation; for FR registers it truncates.
func (s *State) ReadReg(r ir.Reg) int64 {
	switch r.Class {
	case ir.ClassGR:
		return s.readGR(r)
	case ir.ClassPR:
		if s.readPR(r) {
			return 1
		}
		return 0
	case ir.ClassFR:
		return int64(s.readFR(r))
	}
	return 0
}

// ReadRegF returns the FP value of an FR register under current rotation.
func (s *State) ReadRegF(r ir.Reg) float64 { return s.readFR(r) }
