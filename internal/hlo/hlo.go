// Package hlo models the High-Level Optimizer side of the paper: the
// software prefetcher (Mowry-style prefetch distance Lat/IIest with
// trip-count clamping, leading-reference deduplication per cache line,
// speculative index prefetching for indirect references) and — the paper's
// key coupling — the latency-hint heuristics of Sec. 3.2 that preselect
// loads with sub-optimal prefetch efficiency for longer-latency scheduling:
//
//  1. non-prefetchable, non-loop-invariant references (pointer chases);
//  2. (a) symbolic strides and (b) indirect references, both prefetched at
//     reduced distance to bound TLB pressure;
//  3. loops with many integer references missing L1, which are prefetched
//     into L2 only to relieve OzQ pressure.
//
// The hint token is one level below the best level the load can hit: L2
// for integer loads, L3 for FP loads (which bypass L1).
package hlo

import (
	"strconv"

	"ltsp/internal/ir"
	"ltsp/internal/machine"
)

// HintMode selects the experiment's hint policy.
type HintMode uint8

const (
	// ModeNone sets no hints: the paper's baseline compiler.
	ModeNone HintMode = iota
	// ModeAllL3 marks every load with an L3 hint: the headroom experiment
	// of Fig. 7 / Fig. 9 (left bars).
	ModeAllL3
	// ModeAllFPL2 marks every FP load with an L2 hint: the moderate
	// general setting of Fig. 8 (left bars).
	ModeAllFPL2
	// ModeHLO applies the prefetch-efficiency heuristics, with the L2
	// default for unhinted FP loads (Fig. 8 / Fig. 9 right bars).
	ModeHLO
)

// String names the mode as the paper's figures label it.
func (m HintMode) String() string {
	switch m {
	case ModeAllL3:
		return "all-loads-L3"
	case ModeAllFPL2:
		return "all-FP-L2"
	case ModeHLO:
		return "HLO-hints"
	default:
		return "baseline"
	}
}

// Heuristic identifies which Sec. 3.2 rule marked a reference.
type Heuristic uint8

const (
	// HNone: the reference was not marked.
	HNone Heuristic = iota
	// HNotPrefetchable is rule (1).
	HNotPrefetchable
	// HSymbolicStride is rule (2a).
	HSymbolicStride
	// HIndirect is rule (2b).
	HIndirect
	// HOzQPressure is rule (3).
	HOzQPressure
)

// String names the heuristic.
func (h Heuristic) String() string {
	switch h {
	case HNotPrefetchable:
		return "not-prefetchable"
	case HSymbolicStride:
		return "symbolic-stride"
	case HIndirect:
		return "indirect"
	case HOzQPressure:
		return "ozq-pressure"
	default:
		return "none"
	}
}

// Options configures the HLO pass for one loop.
type Options struct {
	// Model supplies latencies; nil means machine.Itanium2().
	Model *machine.Model
	// Mode is the hint policy.
	Mode HintMode
	// Prefetch enables software prefetching (the paper's baseline has it
	// on; one headroom experiment turns it off).
	Prefetch bool
	// TripEstimate is the compile-time trip-count estimate used to clamp
	// prefetch distances; <= 0 means unknown.
	TripEstimate float64
	// OzQPressureThreshold is the number of distinct integer reference
	// groups beyond which heuristic (3) fires. Zero means the default (5).
	OzQPressureThreshold int
	// SymbolicDistance is the reduced prefetch distance for rule (2a);
	// zero means the default (2).
	SymbolicDistance int
	// IndirectDivisor reduces the indirect-reference distance for rule
	// (2b): D_indirect = max(1, D/IndirectDivisor). Zero means 4.
	IndirectDivisor int
	// IndirectMaxDistance caps the indirect-reference prefetch distance:
	// each outstanding indirect prefetch may touch a different page, so the
	// distance is bounded to prevent TLB overflow (paper Sec. 3.2, 2b).
	// Zero means the default (4).
	IndirectMaxDistance int
}

// RefReport records the prefetcher's decision for one memory reference.
type RefReport struct {
	ID        int
	Leader    bool
	Distance  int // prefetch distance in iterations; 0 = not prefetched
	Hint      ir.Hint
	Heuristic Heuristic
	L2Only    bool
}

// Report summarizes an HLO run over one loop.
type Report struct {
	IIEst           int
	Refs            []RefReport
	PrefetchesAdded int
	HintsSet        int
}

// EstimateII is the HLO's coarse initiation-interval estimate used in the
// prefetch-distance formula Lat/IIest.
func EstimateII(m *machine.Model, l *ir.Loop) int {
	var mem int
	for _, in := range l.Body {
		if in.Op.IsMem() {
			mem++
		}
	}
	ii := (len(l.Body) + 1 + m.IssueWidth - 1) / m.IssueWidth
	if v := (mem + m.Units[machine.PortM] - 1) / m.Units[machine.PortM]; v > ii {
		ii = v
	}
	if ii < 1 {
		ii = 1
	}
	return ii
}

// Apply runs the HLO pass on the loop in place: it inserts lfetch
// instructions (and the speculative index-load sequences for indirect
// references), sets latency-hint tokens per the selected mode, and returns
// a report of every decision. The loop must not have been pipelined yet.
func Apply(l *ir.Loop, opts Options) (*Report, error) {
	if opts.Model == nil {
		opts.Model = machine.Itanium2()
	}
	m := opts.Model
	if opts.OzQPressureThreshold <= 0 {
		opts.OzQPressureThreshold = 5
	}
	if opts.SymbolicDistance <= 0 {
		opts.SymbolicDistance = 2
	}
	if opts.IndirectDivisor <= 0 {
		opts.IndirectDivisor = 4
	}
	if opts.IndirectMaxDistance <= 0 {
		opts.IndirectMaxDistance = 4
	}

	rep := &Report{IIEst: EstimateII(m, l)}

	// Group references into cache-line equivalence classes: explicit
	// MemRef.Group when set, otherwise by base register.
	refs := l.MemRefs()
	type groupKey struct {
		group int
		base  ir.Reg
	}
	keyOf := func(in *ir.Instr) groupKey {
		if in.Mem.Group != 0 {
			return groupKey{group: in.Mem.Group}
		}
		return groupKey{base: in.BaseReg()}
	}
	// leaders maps each group to its leading reference; order lists the
	// leaders in program order.
	leaders := map[groupKey]*ir.Instr{}
	var order []*ir.Instr
	for _, in := range refs {
		if in.Op == ir.OpLfetch {
			continue
		}
		k := keyOf(in)
		if leaders[k] == nil {
			leaders[k] = in
			order = append(order, in)
			in.Mem.LineLeader = true
		}
	}

	// Heuristic (3) precondition: many distinct integer reference groups.
	intGroups := 0
	for _, leader := range order {
		if !leader.Op.IsFP() && leader.Op != ir.OpLdF && leader.Op != ir.OpStF {
			intGroups++
		}
	}
	ozqPressure := intGroups > opts.OzQPressureThreshold

	// Baseline distance: cover main-memory latency.
	baseDist := (m.Lat.Memory + rep.IIEst - 1) / rep.IIEst
	if opts.TripEstimate > 0 {
		// Keep at least half of the issued prefetches useful.
		if maxD := int(opts.TripEstimate / 2); baseDist > maxD {
			baseDist = maxD
		}
	}
	if baseDist < 1 {
		baseDist = 1
	}

	hintFor := func(in *ir.Instr) ir.Hint {
		if in.Op == ir.OpLdF {
			return ir.HintL3
		}
		return ir.HintL2
	}

	markHint := func(in *ir.Instr, h ir.Hint, why Heuristic, r *RefReport) {
		if !in.Op.IsLoad() {
			return
		}
		if h > in.Mem.Hint {
			in.Mem.Hint = h
			rep.HintsSet++
		}
		r.Hint = in.Mem.Hint
		r.Heuristic = why
	}

	for _, in := range refs {
		if in.Op == ir.OpLfetch {
			continue
		}
		r := RefReport{ID: in.ID, Leader: in.Mem.LineLeader, Hint: in.Mem.Hint}
		leader := leaders[keyOf(in)]

		switch opts.Mode {
		case ModeAllL3:
			if in.Op.IsLoad() {
				markHint(in, ir.HintL3, HNone, &r)
			}
		case ModeAllFPL2:
			if in.Op == ir.OpLdF {
				markHint(in, ir.HintL2, HNone, &r)
			}
		}

		if !opts.Prefetch {
			// Without prefetching, HLO-mode hints for the efficiency
			// heuristics are moot (there is no prefetcher to be
			// inefficient); the headroom modes above still apply.
			rep.Refs = append(rep.Refs, r)
			continue
		}

		isLeader := in == leader
		switch in.Mem.Stride {
		case ir.StrideInvariant:
			// Loop-invariant: stays in registers/caches; neither prefetch
			// nor hint.
		case ir.StrideUnit, ir.StrideConst:
			if isLeader {
				d := baseDist
				if ozqPressure {
					// Rule (3): prefetch into L2 only; integer loads of the
					// group carry the L2 hint.
					emitStreamPrefetch(l, in, d, ir.HintL2)
					rep.PrefetchesAdded++
					r.Distance, r.L2Only = d, true
					if opts.Mode == ModeHLO {
						markHint(in, ir.HintL2, HOzQPressure, &r)
					}
				} else {
					emitStreamPrefetch(l, in, d, ir.HintNone)
					rep.PrefetchesAdded++
					r.Distance = d
				}
				in.Mem.Prefetched = true
				in.Mem.PrefetchDistance = r.Distance
			} else if leader.Mem.Prefetched {
				in.Mem.Prefetched = true
				in.Mem.PrefetchDistance = leader.Mem.PrefetchDistance
				if opts.Mode == ModeHLO && ozqPressure {
					// All accesses to the marked line share the hint.
					markHint(in, ir.HintL2, HOzQPressure, &r)
				}
			}
		case ir.StrideSymbolic:
			// Rule (2a): prefetchable, but the distance is limited to
			// bound TLB pressure, so part of the latency stays exposed.
			if isLeader {
				d := opts.SymbolicDistance
				emitStreamPrefetch(l, in, d, ir.HintNone)
				rep.PrefetchesAdded++
				r.Distance = d
				in.Mem.Prefetched = true
				in.Mem.PrefetchDistance = d
			}
			if opts.Mode == ModeHLO {
				markHint(in, hintFor(in), HSymbolicStride, &r)
			}
		case ir.StrideIndirect:
			// Rule (2b): a[b[i]] — speculative index load feeding an
			// lfetch, at a reduced distance.
			if isLeader && in.Mem.ArrayBase != ir.None {
				d := baseDist / opts.IndirectDivisor
				if d > opts.IndirectMaxDistance {
					d = opts.IndirectMaxDistance
				}
				if d < 1 {
					d = 1
				}
				emitIndirectPrefetch(l, in, d)
				rep.PrefetchesAdded++
				r.Distance = d
				in.Mem.Prefetched = true
				in.Mem.PrefetchDistance = d
			}
			if opts.Mode == ModeHLO {
				markHint(in, hintFor(in), HIndirect, &r)
			}
		default:
			// StridePointerChase, StrideUnknown: rule (1) — cannot be
			// prefetched at all. Such loads are also flagged delinquent:
			// their expected latency is long enough that boosting pays off
			// even below the trip-count threshold (Sec. 3.1 / Sec. 4.4).
			if opts.Mode == ModeHLO {
				markHint(in, hintFor(in), HNotPrefetchable, &r)
				if in.Op.IsLoad() {
					in.Mem.Delinquent = true
				}
			}
		}
		rep.Refs = append(rep.Refs, r)
	}

	// ModeHLO default: FP loads with no heuristic hint get the moderate L2
	// default (paper Sec. 4.3).
	if opts.Mode == ModeHLO {
		for i := range rep.Refs {
			in := l.Body[rep.Refs[i].ID]
			if in.Op == ir.OpLdF && in.Mem.Hint == ir.HintNone {
				in.Mem.Hint = ir.HintL2
				rep.Refs[i].Hint = ir.HintL2
				rep.HintsSet++
			}
		}
	}
	return rep, nil
}

// emitStreamPrefetch appends an lfetch running d iterations ahead of the
// reference's address stream. hint selects L2-only prefetching for rule
// (3); HintNone fills through to L1.
func emitStreamPrefetch(l *ir.Loop, ref *ir.Instr, d int, hint ir.Hint) {
	stride := ref.Mem.StrideBytes
	if stride == 0 {
		stride = ref.Mem.PostInc
	}
	base := l.NewGR()
	init, _ := l.InitValue(ref.BaseReg())
	l.Init(base, init+int64(d)*stride)
	pf := ir.Lfetch(base, stride, hint)
	pf.Comment = "prefetch for body[" + strconv.Itoa(ref.ID) + "], distance " + strconv.Itoa(d)
	l.Append(pf)
}

// emitIndirectPrefetch appends the rule (2b) sequence for a[b[i]]:
//
//	ld   idx = [pfIdx], IndexStride   // speculative index load, d ahead
//	shladd addr = idx << ScaleShift, ArrayBase
//	lfetch [addr]
func emitIndirectPrefetch(l *ir.Loop, ref *ir.Instr, d int) {
	mem := ref.Mem
	pfIdx := l.NewGR()
	l.Init(pfIdx, mem.IndexInit+int64(d)*mem.IndexStride)
	idx := l.NewGR()
	addr := l.NewGR()
	ldi := ir.Ld(idx, pfIdx, mem.IndexSize, mem.IndexStride)
	ldi.Mem.Stride = ir.StrideConst
	ldi.Mem.StrideBytes = mem.IndexStride
	ldi.Comment = "speculative index load for body[" + strconv.Itoa(ref.ID) + "]"
	l.Append(ldi)
	l.Append(ir.Shladd(addr, idx, mem.ScaleShift, mem.ArrayBase))
	pf := ir.Lfetch(addr, 0, ir.HintNone)
	pf.Comment = "indirect prefetch for body[" + strconv.Itoa(ref.ID) + "], distance " + strconv.Itoa(d)
	l.Append(pf)
}
