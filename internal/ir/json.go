package ir

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// WireVersion is the version tag of the loop wire format. Decoders reject
// encodings with a different version; bump it on any change that alters
// the canonical byte encoding of an existing loop (field renames,
// reordering, representation changes), since the content hash — the
// artifact-cache key — is defined over these bytes.
const WireVersion = 1

// The wire format is a canonical JSON encoding: a fixed field order (Go
// struct order), compact separators, zero-valued fields omitted, and
// registers rendered in their assembly spelling ("r32", "vf3", "-").
// Canonicality is what makes the content hash stable: for any loop,
// Encode(Decode(Encode(l))) == Encode(l) byte for byte. The structs below
// are what DecodeLoop parses; AppendLoop writes the same bytes that
// encoding/json would render from them, without reflection.

type loopWire struct {
	Version int           `json:"v"`
	Name    string        `json:"name,omitempty"`
	Body    []instrWire   `json:"body"`
	Setup   []regInitWire `json:"setup,omitempty"`
	LiveOut []string      `json:"liveOut,omitempty"`
	MemDeps []memDepWire  `json:"memDeps,omitempty"`
	While   *whileWire    `json:"while,omitempty"`
}

type instrWire struct {
	Op      string   `json:"op"`
	Pred    string   `json:"pred,omitempty"`
	Dsts    []string `json:"dsts,omitempty"`
	Srcs    []string `json:"srcs,omitempty"`
	Imm     int64    `json:"imm,omitempty"`
	FImm    float64  `json:"fimm,omitempty"`
	Mem     *memWire `json:"mem,omitempty"`
	Comment string   `json:"comment,omitempty"`
}

type memWire struct {
	Size             int    `json:"size,omitempty"`
	PostInc          int64  `json:"postInc,omitempty"`
	Stride           string `json:"stride,omitempty"`
	StrideBytes      int64  `json:"strideBytes,omitempty"`
	Hint             string `json:"hint,omitempty"`
	Delinquent       bool   `json:"delinquent,omitempty"`
	Prefetched       bool   `json:"prefetched,omitempty"`
	PrefetchDistance int    `json:"prefetchDistance,omitempty"`
	Group            int    `json:"group,omitempty"`
	LineLeader       bool   `json:"lineLeader,omitempty"`
	IndexInit        int64  `json:"indexInit,omitempty"`
	IndexStride      int64  `json:"indexStride,omitempty"`
	IndexSize        int    `json:"indexSize,omitempty"`
	ScaleShift       int64  `json:"scaleShift,omitempty"`
	ArrayBase        string `json:"arrayBase,omitempty"`
}

type regInitWire struct {
	Reg  string  `json:"reg"`
	Val  int64   `json:"val,omitempty"`
	FVal float64 `json:"fval,omitempty"`
}

type memDepWire struct {
	From     int  `json:"from,omitempty"`
	To       int  `json:"to,omitempty"`
	Distance int  `json:"distance,omitempty"`
	Latency  int  `json:"latency,omitempty"`
	MayAlias bool `json:"mayAlias,omitempty"`
}

type whileWire struct {
	Cond string `json:"cond"`
}

// opByName maps the assembly mnemonic back to the opcode.
var opByName = func() map[string]Op {
	m := make(map[string]Op, int(opMax))
	for op := Op(0); op < opMax; op++ {
		if int(op) < len(opNames) && opNames[op] != "" {
			m[opNames[op]] = op
		}
	}
	return m
}()

var strideByName = func() map[string]StrideKind {
	m := make(map[string]StrideKind)
	for s := StrideUnknown; s <= StrideInvariant; s++ {
		m[s.String()] = s
	}
	return m
}()

var hintByName = map[string]Hint{
	"none": HintNone, "L2": HintL2, "L3": HintL3,
}

func decodeReg(s string) (Reg, error) {
	if s == "" || s == "-" {
		return None, nil
	}
	virt := false
	if strings.HasPrefix(s, "v") {
		virt = true
		s = s[1:]
	}
	if len(s) < 2 {
		return None, fmt.Errorf("ir: malformed register %q", s)
	}
	var class RegClass
	switch s[0] {
	case 'r':
		class = ClassGR
	case 'f':
		class = ClassFR
	case 'p':
		class = ClassPR
	default:
		return None, fmt.Errorf("ir: unknown register class in %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 {
		return None, fmt.Errorf("ir: malformed register number in %q", s)
	}
	return Reg{Class: class, N: n, Virtual: virt}, nil
}

func decodeRegs(ss []string) ([]Reg, error) {
	if len(ss) == 0 {
		return nil, nil
	}
	out := make([]Reg, len(ss))
	for i, s := range ss {
		r, err := decodeReg(s)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

func decodeMem(w *memWire) (*MemRef, error) {
	if w == nil {
		return nil, nil
	}
	m := &MemRef{
		Size:             w.Size,
		PostInc:          w.PostInc,
		StrideBytes:      w.StrideBytes,
		Delinquent:       w.Delinquent,
		Prefetched:       w.Prefetched,
		PrefetchDistance: w.PrefetchDistance,
		Group:            w.Group,
		LineLeader:       w.LineLeader,
		IndexInit:        w.IndexInit,
		IndexStride:      w.IndexStride,
		IndexSize:        w.IndexSize,
		ScaleShift:       w.ScaleShift,
	}
	if w.Stride != "" {
		s, ok := strideByName[w.Stride]
		if !ok {
			return nil, fmt.Errorf("ir: unknown stride kind %q", w.Stride)
		}
		m.Stride = s
	}
	if w.Hint != "" {
		h, ok := hintByName[w.Hint]
		if !ok {
			return nil, fmt.Errorf("ir: unknown hint %q", w.Hint)
		}
		m.Hint = h
	}
	base, err := decodeReg(w.ArrayBase)
	if err != nil {
		return nil, err
	}
	m.ArrayBase = base
	return m, nil
}

// EncodeLoop renders the loop in the canonical versioned JSON wire format.
func EncodeLoop(l *Loop) ([]byte, error) {
	return AppendLoop(make([]byte, 0, 64+96*len(l.Body)), l)
}

// AppendLoop appends the loop's canonical wire encoding (see EncodeLoop)
// to dst. It writes exactly what encoding/json renders from loopWire —
// field order, omitempty rules (-0 omitted like 0), register spellings,
// float format and HTML-escaped strings — and, like it, fails on a NaN or
// infinite float and on an opcode with no wire name.
func AppendLoop(dst []byte, l *Loop) ([]byte, error) {
	dst = append(dst, `{"v":`...)
	dst = strconv.AppendInt(dst, WireVersion, 10)
	if l.Name != "" {
		dst = append(dst, `,"name":`...)
		dst = appendString(dst, l.Name)
	}
	dst = append(dst, `,"body":[`...)
	for i, in := range l.Body {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = appendInstr(dst, i, in); err != nil {
			return nil, err
		}
	}
	dst = append(dst, ']')
	if len(l.Setup) > 0 {
		dst = append(dst, `,"setup":[`...)
		for i, s := range l.Setup {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"reg":`...)
			dst = appendReg(dst, s.Reg)
			if s.Val != 0 {
				dst = append(dst, `,"val":`...)
				dst = strconv.AppendInt(dst, s.Val, 10)
			}
			if s.FVal != 0 {
				var err error
				dst = append(dst, `,"fval":`...)
				if dst, err = appendFloat(dst, s.FVal); err != nil {
					return nil, err
				}
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	if len(l.LiveOut) > 0 {
		dst = appendRegList(dst, `,"liveOut":`, l.LiveOut)
	}
	if len(l.MemDeps) > 0 {
		dst = append(dst, `,"memDeps":[`...)
		for i, d := range l.MemDeps {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, '{')
			obj := len(dst)
			dst = appendIntField(dst, obj, "from", int64(d.From))
			dst = appendIntField(dst, obj, "to", int64(d.To))
			dst = appendIntField(dst, obj, "distance", int64(d.Distance))
			dst = appendIntField(dst, obj, "latency", int64(d.Latency))
			dst = appendBoolField(dst, obj, "mayAlias", d.MayAlias)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	if l.While != nil {
		dst = append(dst, `,"while":{"cond":`...)
		dst = appendReg(dst, l.While.Cond)
		dst = append(dst, '}')
	}
	return append(dst, '}'), nil
}

// appendInstr appends body[i]'s instrWire object.
func appendInstr(dst []byte, i int, in *Instr) ([]byte, error) {
	name := in.Op.String()
	if _, ok := opByName[name]; !ok {
		return nil, fmt.Errorf("ir: body[%d]: opcode %v has no wire name", i, in.Op)
	}
	dst = append(dst, `{"op":`...)
	dst = appendString(dst, name)
	if !in.Pred.IsNone() {
		dst = append(dst, `,"pred":`...)
		dst = appendReg(dst, in.Pred)
	}
	if len(in.Dsts) > 0 {
		dst = appendRegList(dst, `,"dsts":`, in.Dsts)
	}
	if len(in.Srcs) > 0 {
		dst = appendRegList(dst, `,"srcs":`, in.Srcs)
	}
	if in.Imm != 0 {
		dst = append(dst, `,"imm":`...)
		dst = strconv.AppendInt(dst, in.Imm, 10)
	}
	if in.FImm != 0 {
		var err error
		dst = append(dst, `,"fimm":`...)
		if dst, err = appendFloat(dst, in.FImm); err != nil {
			return nil, err
		}
	}
	if m := in.Mem; m != nil {
		dst = append(dst, `,"mem":{`...)
		obj := len(dst)
		dst = appendIntField(dst, obj, "size", int64(m.Size))
		dst = appendIntField(dst, obj, "postInc", m.PostInc)
		if m.Stride != StrideUnknown {
			dst = appendKey(dst, obj, "stride")
			dst = appendString(dst, m.Stride.String())
		}
		dst = appendIntField(dst, obj, "strideBytes", m.StrideBytes)
		if m.Hint != HintNone {
			dst = appendKey(dst, obj, "hint")
			dst = appendString(dst, m.Hint.String())
		}
		dst = appendBoolField(dst, obj, "delinquent", m.Delinquent)
		dst = appendBoolField(dst, obj, "prefetched", m.Prefetched)
		dst = appendIntField(dst, obj, "prefetchDistance", int64(m.PrefetchDistance))
		dst = appendIntField(dst, obj, "group", int64(m.Group))
		dst = appendBoolField(dst, obj, "lineLeader", m.LineLeader)
		dst = appendIntField(dst, obj, "indexInit", m.IndexInit)
		dst = appendIntField(dst, obj, "indexStride", m.IndexStride)
		dst = appendIntField(dst, obj, "indexSize", int64(m.IndexSize))
		dst = appendIntField(dst, obj, "scaleShift", m.ScaleShift)
		if !m.ArrayBase.IsNone() {
			dst = appendKey(dst, obj, "arrayBase")
			dst = appendReg(dst, m.ArrayBase)
		}
		dst = append(dst, '}')
	}
	if in.Comment != "" {
		dst = append(dst, `,"comment":`...)
		dst = appendString(dst, in.Comment)
	}
	return append(dst, '}'), nil
}

// appendReg appends r's quoted assembly spelling (Reg.String, so None is
// "-").
func appendReg(dst []byte, r Reg) []byte {
	dst = append(dst, '"')
	if r.IsNone() {
		dst = append(dst, '-')
	} else {
		if r.Virtual {
			dst = append(dst, 'v')
		}
		dst = append(dst, r.Class.String()...)
		dst = strconv.AppendInt(dst, int64(r.N), 10)
	}
	return append(dst, '"')
}

// appendRegList appends key and a register array. Inside operand lists
// None must stay positionally visible (e.g. the unused arm of a
// two-destination compare), so it is spelled "-" rather than omitted.
func appendRegList(dst []byte, key string, rs []Reg) []byte {
	dst = append(dst, key...)
	dst = append(dst, '[')
	for i, r := range rs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendReg(dst, r)
	}
	return append(dst, ']')
}

// appendKey appends an object member's "name": prefix, comma-separated
// from any member already written since the object began at obj.
func appendKey(dst []byte, obj int, name string) []byte {
	if len(dst) > obj {
		dst = append(dst, ',')
	}
	dst = append(dst, '"')
	dst = append(dst, name...)
	return append(dst, '"', ':')
}

// appendIntField appends an omitempty integer member.
func appendIntField(dst []byte, obj int, name string, v int64) []byte {
	if v == 0 {
		return dst
	}
	return strconv.AppendInt(appendKey(dst, obj, name), v, 10)
}

// appendBoolField appends an omitempty boolean member.
func appendBoolField(dst []byte, obj int, name string, v bool) []byte {
	if !v {
		return dst
	}
	return append(appendKey(dst, obj, name), "true"...)
}

// appendString appends s as encoding/json quotes it: HTML-escaped,
// with invalid UTF-8 replaced. Strings of plain printable ASCII (every
// opcode, stride and hint spelling, and most names) are copied as they
// are; any other string takes encoding/json's own path.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(dst, q...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendFloat appends f as encoding/json renders a float64: the
// shortest 'f' form, or 'e' below 1e-6 and from 1e21 up with a
// two-digit negative exponent shortened (1e-07 is 1e-7). NaN and the
// infinities fail with encoding/json's own error.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		_, err := json.Marshal(f)
		return nil, err
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// bodyLen counts the instructions of the body in a wire-format loop
// without decoding them, so DecodeLoop refuses an oversized body before
// allocating a single instruction. It walks the bytes once, skipping
// strings, and counts the separators of every array that is the value
// of a top-level key encoding/json would match to "body" (any case,
// escapes resolved); it reports the largest. On well-formed JSON that
// is the body's length whenever it is above one; on malformed JSON the
// count is meaningless, and the decoder refuses the input anyway.
func bodyLen(data []byte) int {
	n, commas, depth := 0, 0, 0
	inBody := false
	var key []byte // the last string seen in the top-level object
	for i := 0; i < len(data); i++ {
		switch data[i] {
		case '"':
			j := i + 1
			for ; j < len(data) && data[j] != '"'; j++ {
				if data[j] == '\\' {
					j++
				}
			}
			if depth == 1 {
				key = data[i:min(j+1, len(data))]
			}
			i = j
		case '{':
			depth++
		case '[':
			if depth == 0 {
				return 0 // not an object: the decoder refuses it
			}
			if depth == 1 && isBodyKey(key) {
				inBody, commas = true, 0
			}
			depth++
		case '}', ']':
			depth--
			if depth == 1 && inBody {
				inBody, n = false, max(n, commas+1)
			}
			if depth == 0 {
				return n // the decoder reads no further
			}
		case ',':
			if inBody && depth == 2 {
				commas++
			}
		}
	}
	return n
}

// isBodyKey reports whether the quoted key names loopWire.Body.
func isBodyKey(quoted []byte) bool {
	if bytes.IndexByte(quoted, '\\') < 0 {
		return len(quoted) == 6 && bytes.EqualFold(quoted[1:5], []byte("body"))
	}
	var k string
	return json.Unmarshal(quoted, &k) == nil && strings.EqualFold(k, "body")
}

// DecodeLoop parses a wire-format loop. The loop builder's virtual register
// counters are rebuilt from the highest virtual id in use, so passes that
// allocate fresh registers on the decoded loop (the HLO prefetcher, the
// if-converter) never collide with existing operands.
func DecodeLoop(data []byte) (*Loop, error) {
	if err := CheckBodyLen(bodyLen(data)); err != nil {
		return nil, &InvalidLoopError{Err: err}
	}
	var w loopWire
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&w); err != nil {
		return nil, fmt.Errorf("ir: decode loop: %w", err)
	}
	if w.Version != WireVersion {
		return nil, fmt.Errorf("ir: unsupported wire version %d (want %d)", w.Version, WireVersion)
	}
	l := NewLoop(w.Name)
	for i, iw := range w.Body {
		op, ok := opByName[iw.Op]
		if !ok {
			return nil, fmt.Errorf("ir: body[%d]: unknown opcode %q", i, iw.Op)
		}
		pred, err := decodeReg(iw.Pred)
		if err != nil {
			return nil, fmt.Errorf("ir: body[%d]: %w", i, err)
		}
		dsts, err := decodeRegs(iw.Dsts)
		if err != nil {
			return nil, fmt.Errorf("ir: body[%d]: %w", i, err)
		}
		srcs, err := decodeRegs(iw.Srcs)
		if err != nil {
			return nil, fmt.Errorf("ir: body[%d]: %w", i, err)
		}
		mem, err := decodeMem(iw.Mem)
		if err != nil {
			return nil, fmt.Errorf("ir: body[%d]: %w", i, err)
		}
		l.Append(&Instr{
			Op: op, Pred: pred, Dsts: dsts, Srcs: srcs,
			Imm: iw.Imm, FImm: iw.FImm, Mem: mem, Comment: iw.Comment,
		})
	}
	for _, sw := range w.Setup {
		r, err := decodeReg(sw.Reg)
		if err != nil {
			return nil, fmt.Errorf("ir: setup: %w", err)
		}
		l.Setup = append(l.Setup, RegInit{Reg: r, Val: sw.Val, FVal: sw.FVal})
	}
	for _, s := range w.LiveOut {
		r, err := decodeReg(s)
		if err != nil {
			return nil, fmt.Errorf("ir: liveOut: %w", err)
		}
		l.LiveOut = append(l.LiveOut, r)
	}
	for _, dw := range w.MemDeps {
		l.MemDeps = append(l.MemDeps, MemDep{
			From: dw.From, To: dw.To, Distance: dw.Distance,
			Latency: dw.Latency, MayAlias: dw.MayAlias,
		})
	}
	if w.While != nil {
		r, err := decodeReg(w.While.Cond)
		if err != nil {
			return nil, fmt.Errorf("ir: while: %w", err)
		}
		l.While = &WhileInfo{Cond: r}
	}
	l.rebuildVirtCounters()
	if err := ValidateSemantics(l); err != nil {
		return nil, &InvalidLoopError{Err: err}
	}
	return l, nil
}

// rebuildVirtCounters sets each class's next-virtual-id counter past the
// highest virtual register mentioned anywhere in the loop.
func (l *Loop) rebuildVirtCounters() {
	note := func(r Reg) {
		if r.Virtual && r.N >= l.nextVirt[r.Class] {
			l.nextVirt[r.Class] = r.N + 1
		}
	}
	for _, in := range l.Body {
		note(in.Pred)
		for _, r := range in.Dsts {
			note(r)
		}
		for _, r := range in.Srcs {
			note(r)
		}
		if in.Mem != nil {
			note(in.Mem.ArrayBase)
		}
	}
	for _, s := range l.Setup {
		note(s.Reg)
	}
	for _, r := range l.LiveOut {
		note(r)
	}
	if l.While != nil {
		note(l.While.Cond)
	}
}

// OpByName resolves an assembly mnemonic to its opcode. Alternate wire
// codecs (internal/wire/binary) intern mnemonic strings and resolve them
// through this same table, so opcode numbering can never drift between
// encodings even if Op values are renumbered.
func OpByName(name string) (Op, bool) {
	op, ok := opByName[name]
	return op, ok
}

// StrideKindByName resolves a stride-kind wire spelling.
func StrideKindByName(name string) (StrideKind, bool) {
	s, ok := strideByName[name]
	return s, ok
}

// HintByName resolves a cache-hint wire spelling.
func HintByName(name string) (Hint, bool) {
	h, ok := hintByName[name]
	return h, ok
}

// FinishDecodedLoop completes a loop assembled by an alternate decoder:
// it rebuilds the virtual-register counters and validates semantics,
// exactly the epilogue DecodeLoop runs after JSON parsing. Every decoder
// must call it so that no wire format can smuggle in a loop the JSON
// path would reject.
func FinishDecodedLoop(l *Loop) error {
	l.rebuildVirtCounters()
	if err := ValidateSemantics(l); err != nil {
		return &InvalidLoopError{Err: err}
	}
	return nil
}
