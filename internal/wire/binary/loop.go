package binary

import (
	"ltsp/internal/ir"
	"ltsp/internal/wire"
)

// The loop payload mirrors the canonical JSON loop encoding field for
// field, including its presence rules: a field travels exactly when the
// JSON form would emit it (Go zero values are omitted), so a loop
// round-tripped through either codec lands on the identical struct.
//
// Registers are packed numerically instead of interning their assembly
// spellings: None is 0, any other register is 1+((N<<3)|(class<<1)|virt)
// in one uvarint — 1 byte for every real machine register. Opcode
// mnemonics, stride kinds and cache hints travel as interned strings
// resolved through the ir name tables (ir.OpByName & co.), the same
// tables the JSON decoder uses.

// Instruction presence flags.
const (
	insPred byte = 1 << iota
	insDsts
	insSrcs
	insImm
	insFImm
	insMem
	insComment
)

// MemRef presence mask bits, in field order.
const (
	memSize = 1 << iota
	memPostInc
	memStride
	memStrideBytes
	memHint
	memDelinquent
	memPrefetched
	memPrefetchDistance
	memGroup
	memLineLeader
	memIndexInit
	memIndexStride
	memIndexSize
	memScaleShift
	memArrayBase
)

// RegInit presence flags.
const (
	setupVal byte = 1 << iota
	setupFVal
)

func encodeReg(w *writer, r ir.Reg) {
	if r.IsNone() {
		w.u64(0)
		return
	}
	w.u64(1 + (uint64(r.N)<<3 | uint64(r.Class)<<1 | b2u(r.Virtual)))
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func decodeReg(r *reader) ir.Reg {
	v := r.u64()
	if v == 0 || r.err != nil {
		return ir.None
	}
	v--
	reg := ir.Reg{
		Class:   ir.RegClass(v >> 1 & 3),
		N:       int(v >> 3),
		Virtual: v&1 != 0,
	}
	if reg.Class == ir.ClassNone {
		r.fail("malformed register encoding %d", v+1)
		return ir.None
	}
	return reg
}

func encodeMem(w *writer, m *ir.MemRef) error {
	mask := 0
	set := func(cond bool, bit int) {
		if cond {
			mask |= bit
		}
	}
	set(m.Size != 0, memSize)
	set(m.PostInc != 0, memPostInc)
	set(m.Stride != ir.StrideUnknown, memStride)
	set(m.StrideBytes != 0, memStrideBytes)
	set(m.Hint != ir.HintNone, memHint)
	set(m.Delinquent, memDelinquent)
	set(m.Prefetched, memPrefetched)
	set(m.PrefetchDistance != 0, memPrefetchDistance)
	set(m.Group != 0, memGroup)
	set(m.LineLeader, memLineLeader)
	set(m.IndexInit != 0, memIndexInit)
	set(m.IndexStride != 0, memIndexStride)
	set(m.IndexSize != 0, memIndexSize)
	set(m.ScaleShift != 0, memScaleShift)
	set(!m.ArrayBase.IsNone(), memArrayBase)
	w.u64(uint64(mask))
	if mask&memSize != 0 {
		w.i64(int64(m.Size))
	}
	if mask&memPostInc != 0 {
		w.i64(m.PostInc)
	}
	if mask&memStride != 0 {
		name := m.Stride.String()
		if _, ok := ir.StrideKindByName(name); !ok {
			return fmtErr("stride kind %v has no wire name", m.Stride)
		}
		w.str(name)
	}
	if mask&memStrideBytes != 0 {
		w.i64(m.StrideBytes)
	}
	if mask&memHint != 0 {
		name := m.Hint.String()
		if _, ok := ir.HintByName(name); !ok {
			return fmtErr("hint %v has no wire name", m.Hint)
		}
		w.str(name)
	}
	if mask&memPrefetchDistance != 0 {
		w.i64(int64(m.PrefetchDistance))
	}
	if mask&memGroup != 0 {
		w.i64(int64(m.Group))
	}
	if mask&memIndexInit != 0 {
		w.i64(m.IndexInit)
	}
	if mask&memIndexStride != 0 {
		w.i64(m.IndexStride)
	}
	if mask&memIndexSize != 0 {
		w.i64(int64(m.IndexSize))
	}
	if mask&memScaleShift != 0 {
		w.i64(m.ScaleShift)
	}
	if mask&memArrayBase != 0 {
		encodeReg(w, m.ArrayBase)
	}
	return nil
}

func decodeMem(r *reader) *ir.MemRef {
	mask := int(r.u64())
	if r.err != nil {
		return nil
	}
	m := &ir.MemRef{}
	if mask&memSize != 0 {
		m.Size = int(r.i64())
	}
	if mask&memPostInc != 0 {
		m.PostInc = r.i64()
	}
	if mask&memStride != 0 {
		s, ok := ir.StrideKindByName(r.str())
		if !ok && r.err == nil {
			r.fail("unknown stride kind")
		}
		m.Stride = s
	}
	if mask&memStrideBytes != 0 {
		m.StrideBytes = r.i64()
	}
	if mask&memHint != 0 {
		h, ok := ir.HintByName(r.str())
		if !ok && r.err == nil {
			r.fail("unknown hint")
		}
		m.Hint = h
	}
	m.Delinquent = mask&memDelinquent != 0
	m.Prefetched = mask&memPrefetched != 0
	if mask&memPrefetchDistance != 0 {
		m.PrefetchDistance = int(r.i64())
	}
	if mask&memGroup != 0 {
		m.Group = int(r.i64())
	}
	m.LineLeader = mask&memLineLeader != 0
	if mask&memIndexInit != 0 {
		m.IndexInit = r.i64()
	}
	if mask&memIndexStride != 0 {
		m.IndexStride = r.i64()
	}
	if mask&memIndexSize != 0 {
		m.IndexSize = int(r.i64())
	}
	if mask&memScaleShift != 0 {
		m.ScaleShift = r.i64()
	}
	if mask&memArrayBase != 0 {
		m.ArrayBase = decodeReg(r)
	}
	return m
}

// encodeLoop writes the loop payload. Like ir.EncodeLoop, it errors on
// opcodes with no wire name; everything else encodes unconditionally.
func encodeLoop(w *writer, l *ir.Loop) error {
	w.u64(uint64(ir.WireVersion))
	w.str(l.Name)
	w.u64(uint64(len(l.Body)))
	for i, in := range l.Body {
		name := in.Op.String()
		if _, ok := ir.OpByName(name); !ok {
			return fmtErr("body[%d]: opcode %v has no wire name", i, in.Op)
		}
		w.str(name)
		var flags byte
		if !in.Pred.IsNone() {
			flags |= insPred
		}
		if len(in.Dsts) > 0 {
			flags |= insDsts
		}
		if len(in.Srcs) > 0 {
			flags |= insSrcs
		}
		if in.Imm != 0 {
			flags |= insImm
		}
		if in.FImm != 0 {
			flags |= insFImm
		}
		if in.Mem != nil {
			flags |= insMem
		}
		if in.Comment != "" {
			flags |= insComment
		}
		w.byte(flags)
		if flags&insPred != 0 {
			encodeReg(w, in.Pred)
		}
		if flags&insDsts != 0 {
			w.u64(uint64(len(in.Dsts)))
			for _, reg := range in.Dsts {
				encodeReg(w, reg)
			}
		}
		if flags&insSrcs != 0 {
			w.u64(uint64(len(in.Srcs)))
			for _, reg := range in.Srcs {
				encodeReg(w, reg)
			}
		}
		if flags&insImm != 0 {
			w.i64(in.Imm)
		}
		if flags&insFImm != 0 {
			w.f64(in.FImm)
		}
		if flags&insMem != 0 {
			if err := encodeMem(w, in.Mem); err != nil {
				return err
			}
		}
		if flags&insComment != 0 {
			w.str(in.Comment)
		}
	}
	w.u64(uint64(len(l.Setup)))
	for _, s := range l.Setup {
		encodeReg(w, s.Reg)
		var flags byte
		if s.Val != 0 {
			flags |= setupVal
		}
		if s.FVal != 0 {
			flags |= setupFVal
		}
		w.byte(flags)
		if flags&setupVal != 0 {
			w.i64(s.Val)
		}
		if flags&setupFVal != 0 {
			w.f64(s.FVal)
		}
	}
	w.u64(uint64(len(l.LiveOut)))
	for _, reg := range l.LiveOut {
		encodeReg(w, reg)
	}
	w.u64(uint64(len(l.MemDeps)))
	for _, d := range l.MemDeps {
		w.i64(int64(d.From))
		w.i64(int64(d.To))
		w.i64(int64(d.Distance))
		w.i64(int64(d.Latency))
		w.byte(byte(b2u(d.MayAlias)))
	}
	if l.While != nil {
		w.byte(1)
		encodeReg(w, l.While.Cond)
	} else {
		w.byte(0)
	}
	return nil
}

// decodeLoop parses a loop payload and runs it through the exact same
// validation epilogue as the JSON decoder (ir.FinishDecodedLoop).
func decodeLoop(r *reader) (*ir.Loop, error) {
	if v := r.u64(); r.err == nil && v != ir.WireVersion {
		return nil, fmtErr("%w: loop wire version %d (want %d)", wire.ErrVersion, v, ir.WireVersion)
	}
	l := ir.NewLoop(r.str())
	nBody := r.count()
	if err := ir.CheckBodyLen(nBody); err != nil {
		return nil, &ir.InvalidLoopError{Err: err}
	}
	for i := 0; i < nBody && r.err == nil; i++ {
		op, ok := ir.OpByName(r.str())
		if !ok && r.err == nil {
			r.fail("body[%d]: unknown opcode", i)
			break
		}
		in := &ir.Instr{Op: op}
		flags := r.byte()
		if flags&insPred != 0 {
			in.Pred = decodeReg(r)
		}
		if flags&insDsts != 0 {
			n := r.count()
			if n > 0 && r.err == nil {
				in.Dsts = make([]ir.Reg, n)
				for j := range in.Dsts {
					in.Dsts[j] = decodeReg(r)
				}
			}
		}
		if flags&insSrcs != 0 {
			n := r.count()
			if n > 0 && r.err == nil {
				in.Srcs = make([]ir.Reg, n)
				for j := range in.Srcs {
					in.Srcs[j] = decodeReg(r)
				}
			}
		}
		if flags&insImm != 0 {
			in.Imm = r.i64()
		}
		if flags&insFImm != 0 {
			in.FImm = r.f64()
		}
		if flags&insMem != 0 {
			in.Mem = decodeMem(r)
		}
		if flags&insComment != 0 {
			in.Comment = r.str()
		}
		if r.err != nil {
			break
		}
		l.Append(in)
	}
	nSetup := r.count()
	for i := 0; i < nSetup && r.err == nil; i++ {
		s := ir.RegInit{Reg: decodeReg(r)}
		flags := r.byte()
		if flags&setupVal != 0 {
			s.Val = r.i64()
		}
		if flags&setupFVal != 0 {
			s.FVal = r.f64()
		}
		if r.err == nil {
			l.Setup = append(l.Setup, s)
		}
	}
	nLive := r.count()
	for i := 0; i < nLive && r.err == nil; i++ {
		l.LiveOut = append(l.LiveOut, decodeReg(r))
	}
	nDeps := r.count()
	for i := 0; i < nDeps && r.err == nil; i++ {
		d := ir.MemDep{
			From:     int(r.i64()),
			To:       int(r.i64()),
			Distance: int(r.i64()),
			Latency:  int(r.i64()),
			MayAlias: r.byte() != 0,
		}
		if r.err == nil {
			l.MemDeps = append(l.MemDeps, d)
		}
	}
	if r.byte() != 0 && r.err == nil {
		l.While = &ir.WhileInfo{Cond: decodeReg(r)}
	}
	if r.err != nil {
		return nil, r.err
	}
	if err := ir.FinishDecodedLoop(l); err != nil {
		return nil, err
	}
	return l, nil
}
