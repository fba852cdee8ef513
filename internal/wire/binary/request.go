package binary

import (
	"ltsp/internal/ir"
	"ltsp/internal/wire"
)

// Option presence flags.
const (
	optPrefetch byte = 1 << iota
	optLatencyTolerant
	optBoostDelinquent
	optTrip
	optPipeline
	optPipelineTrue
	optBackend
)

func encodeOptions(w *writer, o wire.Options) {
	var flags byte
	if o.Prefetch {
		flags |= optPrefetch
	}
	if o.LatencyTolerant {
		flags |= optLatencyTolerant
	}
	if o.BoostDelinquent {
		flags |= optBoostDelinquent
	}
	if o.TripEstimate != 0 {
		flags |= optTrip
	}
	if o.Pipeline != nil {
		flags |= optPipeline
		if *o.Pipeline {
			flags |= optPipelineTrue
		}
	}
	// The backend string is carried in its canonical spelling ("" for the
	// heuristic), and only when non-empty, so heuristic frames are
	// byte-identical to pre-backend frames.
	backend := wire.BackendName(o.Backend)
	if backend != "" {
		flags |= optBackend
	}
	w.byte(flags)
	w.str(o.Mode)
	if flags&optTrip != 0 {
		w.f64(o.TripEstimate)
	}
	if flags&optBackend != 0 {
		w.str(backend)
	}
}

func decodeOptions(r *reader) wire.Options {
	flags := r.byte()
	o := wire.Options{
		Mode:            r.str(),
		Prefetch:        flags&optPrefetch != 0,
		LatencyTolerant: flags&optLatencyTolerant != 0,
		BoostDelinquent: flags&optBoostDelinquent != 0,
	}
	if flags&optTrip != 0 {
		o.TripEstimate = r.f64()
	}
	if flags&optPipeline != 0 {
		v := flags&optPipelineTrue != 0
		o.Pipeline = &v
	}
	if flags&optBackend != 0 {
		o.Backend = r.str()
	}
	return o
}

// EncodeCompileRequest appends a compile-request frame built from an
// in-memory loop and wire options — the binary analogue of
// wire.NewCompileRequest + json.Marshal.
func EncodeCompileRequest(dst []byte, l *ir.Loop, o wire.Options) ([]byte, error) {
	w := getWriter()
	defer putWriter(w)
	w.u64(uint64(wire.Version))
	encodeOptions(w, o)
	if err := encodeLoop(w, l); err != nil {
		return nil, err
	}
	return frame(dst, kindCompileRequest, w.buf), nil
}

// DecodeCompileRequest parses a compile-request frame into a
// wire.CompileRequest that carries the decoded (and semantically
// validated) loop: its Decode never parses JSON.
func DecodeCompileRequest(data []byte) (*wire.CompileRequest, error) {
	r, err := decodeFrame(data, kindCompileRequest)
	if err != nil {
		return nil, err
	}
	if v := r.u64(); r.err == nil && v != wire.Version {
		return nil, fmtErr("%w: request envelope %d (want %d)", wire.ErrVersion, v, wire.Version)
	}
	opts := decodeOptions(r)
	if r.err != nil {
		return nil, r.err
	}
	l, err := decodeLoop(r)
	if err != nil {
		return nil, err
	}
	if r.off != len(r.b) {
		return nil, fmtErr("%d trailing bytes after request payload", len(r.b)-r.off)
	}
	return wire.NewDecodedRequest(l, opts)
}

// EncodeCompileBatch appends a compile-batch frame. Items are
// (loop, options) pairs in request order.
func EncodeCompileBatch(dst []byte, loops []*ir.Loop, opts []wire.Options) ([]byte, error) {
	if len(loops) != len(opts) {
		return nil, fmtErr("batch has %d loops but %d option sets", len(loops), len(opts))
	}
	w := getWriter()
	defer putWriter(w)
	w.u64(uint64(wire.Version))
	w.u64(uint64(len(loops)))
	for i := range loops {
		encodeOptions(w, opts[i])
		if err := encodeLoop(w, loops[i]); err != nil {
			return nil, err
		}
	}
	return frame(dst, kindCompileBatchRequest, w.buf), nil
}

// DecodeCompileBatch parses a compile-batch frame; every item's loop is
// decoded, validated and carried exactly as in DecodeCompileRequest,
// together with the item's bytes with every interned string replaced by
// its index in the frame's string table, on which
// wire.CompileBatchRequest.Distinct groups exact copies.
func DecodeCompileBatch(data []byte) (*wire.CompileBatchRequest, error) {
	r, err := decodeFrame(data, kindCompileBatchRequest)
	if err != nil {
		return nil, err
	}
	version := r.u64()
	if r.err == nil && version != wire.Version {
		return nil, fmtErr("%w: request envelope %d (want %d)", wire.ErrVersion, version, wire.Version)
	}
	n := r.count()
	if r.err != nil {
		return nil, r.err
	}
	req := &wire.CompileBatchRequest{Version: int(version), Items: make([]wire.CompileItem, 0, n)}
	r.key = make([]byte, 0, r.rem())
	for i := 0; i < n; i++ {
		k0 := len(r.key)
		r.mark = r.off
		opts := decodeOptions(r)
		if r.err != nil {
			return nil, r.err
		}
		l, err := decodeLoop(r)
		if err != nil {
			return nil, fmtErr("item[%d]: %w", i, err)
		}
		r.key = append(r.key, r.b[r.mark:r.off]...)
		item, err := wire.NewDecodedItem(l, opts, r.key[k0:len(r.key):len(r.key)])
		if err != nil {
			return nil, fmtErr("item[%d]: %w", i, err)
		}
		req.Items = append(req.Items, item)
	}
	if r.off != len(r.b) {
		return nil, fmtErr("%d trailing bytes after batch payload", len(r.b)-r.off)
	}
	return req, nil
}
