package ir

import (
	"encoding/json"
	"fmt"
)

// RefEncodeLoop is the reference loop encoder: it fills loopWire and lets
// encoding/json reflect over it. AppendLoop must reproduce its bytes (and
// its errors) exactly; FuzzEncodeLoop and TestAppendLoopMatchesReference
// hold it to that.
func RefEncodeLoop(l *Loop) ([]byte, error) {
	w := loopWire{
		Version: WireVersion,
		Name:    l.Name,
		Body:    make([]instrWire, len(l.Body)),
	}
	for i, in := range l.Body {
		iw := instrWire{
			Op:      in.Op.String(),
			Pred:    refEncodeReg(in.Pred),
			Dsts:    refEncodeRegs(in.Dsts),
			Srcs:    refEncodeRegs(in.Srcs),
			Imm:     in.Imm,
			FImm:    in.FImm,
			Mem:     refEncodeMem(in.Mem),
			Comment: in.Comment,
		}
		if _, ok := opByName[iw.Op]; !ok {
			return nil, fmt.Errorf("ir: body[%d]: opcode %v has no wire name", i, in.Op)
		}
		w.Body[i] = iw
	}
	for _, s := range l.Setup {
		w.Setup = append(w.Setup, regInitWire{Reg: s.Reg.String(), Val: s.Val, FVal: s.FVal})
	}
	for _, r := range l.LiveOut {
		w.LiveOut = append(w.LiveOut, r.String())
	}
	for _, d := range l.MemDeps {
		w.MemDeps = append(w.MemDeps, memDepWire{
			From: d.From, To: d.To, Distance: d.Distance,
			Latency: d.Latency, MayAlias: d.MayAlias,
		})
	}
	if l.While != nil {
		w.While = &whileWire{Cond: l.While.Cond.String()}
	}
	return json.Marshal(w)
}

// refEncodeReg spells a lone register field; None is omitted.
func refEncodeReg(r Reg) string {
	if r.IsNone() {
		return ""
	}
	return r.String()
}

// refEncodeRegs spells an operand list; None stays visible as "-".
func refEncodeRegs(rs []Reg) []string {
	if len(rs) == 0 {
		return nil
	}
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.String()
	}
	return out
}

func refEncodeMem(m *MemRef) *memWire {
	if m == nil {
		return nil
	}
	w := &memWire{
		Size:             m.Size,
		PostInc:          m.PostInc,
		StrideBytes:      m.StrideBytes,
		Delinquent:       m.Delinquent,
		Prefetched:       m.Prefetched,
		PrefetchDistance: m.PrefetchDistance,
		Group:            m.Group,
		LineLeader:       m.LineLeader,
		IndexInit:        m.IndexInit,
		IndexStride:      m.IndexStride,
		IndexSize:        m.IndexSize,
		ScaleShift:       m.ScaleShift,
		ArrayBase:        refEncodeReg(m.ArrayBase),
	}
	if m.Stride != StrideUnknown {
		w.Stride = m.Stride.String()
	}
	if m.Hint != HintNone {
		w.Hint = m.Hint.String()
	}
	return w
}
