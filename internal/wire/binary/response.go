package binary

import (
	"ltsp/internal/wire"
)

// CompileResponse flags.
const (
	respCached byte = 1 << iota
	respPipelined
	respHLO
	respProvenII
	respBackend
)

// BatchItemResult flags.
const (
	itemResponse byte = 1 << iota
	itemRetryable
)

func encodeCompileResponse(w *writer, resp *wire.CompileResponse) {
	w.str(resp.Hash)
	var flags byte
	if resp.Cached {
		flags |= respCached
	}
	if resp.Pipelined {
		flags |= respPipelined
	}
	if resp.HLO != nil {
		flags |= respHLO
	}
	if resp.ProvenII {
		flags |= respProvenII
	}
	if resp.Backend != "" {
		flags |= respBackend
	}
	w.byte(flags)
	w.i64(int64(resp.II))
	w.i64(int64(resp.Stages))
	w.i64(int64(resp.ResII))
	w.i64(int64(resp.RecII))
	w.i64(int64(resp.Reg.GR))
	w.i64(int64(resp.Reg.RotGR))
	w.i64(int64(resp.Reg.FR))
	w.i64(int64(resp.Reg.RotFR))
	w.i64(int64(resp.Reg.PR))
	w.i64(int64(resp.Reg.RotPR))
	w.i64(int64(resp.Reg.Spills))
	w.u64(uint64(len(resp.Loads)))
	for _, l := range resp.Loads {
		w.i64(int64(l.ID))
		w.byte(byte(b2u(l.Critical)))
		w.i64(int64(l.BaseLat))
		w.i64(int64(l.SchedLat))
		w.i64(int64(l.ExtraD))
		w.i64(int64(l.ClusterK))
		w.str(l.Hint)
	}
	if flags&respHLO != 0 {
		w.i64(int64(resp.HLO.IIEst))
		w.i64(int64(resp.HLO.PrefetchesAdded))
		w.i64(int64(resp.HLO.HintsSet))
	}
	if flags&respBackend != 0 {
		w.str(resp.Backend)
	}
	w.str(resp.Outcome)
	w.str(resp.Listing)
	w.str(resp.Diagram)
}

func decodeCompileResponse(r *reader) *wire.CompileResponse {
	resp := &wire.CompileResponse{Hash: r.str()}
	flags := r.byte()
	resp.Cached = flags&respCached != 0
	resp.Pipelined = flags&respPipelined != 0
	resp.II = int(r.i64())
	resp.Stages = int(r.i64())
	resp.ResII = int(r.i64())
	resp.RecII = int(r.i64())
	resp.Reg.GR = int(r.i64())
	resp.Reg.RotGR = int(r.i64())
	resp.Reg.FR = int(r.i64())
	resp.Reg.RotFR = int(r.i64())
	resp.Reg.PR = int(r.i64())
	resp.Reg.RotPR = int(r.i64())
	resp.Reg.Spills = int(r.i64())
	n := r.count()
	if n > 0 && r.err == nil {
		resp.Loads = make([]wire.LoadReportJSON, 0, n)
		for i := 0; i < n && r.err == nil; i++ {
			l := wire.LoadReportJSON{ID: int(r.i64())}
			l.Critical = r.byte() != 0
			l.BaseLat = int(r.i64())
			l.SchedLat = int(r.i64())
			l.ExtraD = int(r.i64())
			l.ClusterK = int(r.i64())
			l.Hint = r.str()
			if r.err == nil {
				resp.Loads = append(resp.Loads, l)
			}
		}
	}
	if flags&respHLO != 0 {
		resp.HLO = &wire.HLOJSON{
			IIEst:           int(r.i64()),
			PrefetchesAdded: int(r.i64()),
			HintsSet:        int(r.i64()),
		}
	}
	resp.ProvenII = flags&respProvenII != 0
	if flags&respBackend != 0 {
		resp.Backend = r.str()
	}
	resp.Outcome = r.str()
	resp.Listing = r.str()
	resp.Diagram = r.str()
	return resp
}

// EncodeCompileResponse appends a compile-response frame.
func EncodeCompileResponse(dst []byte, resp *wire.CompileResponse) []byte {
	w := getWriter()
	defer putWriter(w)
	encodeCompileResponse(w, resp)
	return frame(dst, kindCompileResponse, w.buf)
}

// DecodeCompileResponse parses a compile-response frame.
func DecodeCompileResponse(data []byte) (*wire.CompileResponse, error) {
	r, err := decodeFrame(data, kindCompileResponse)
	if err != nil {
		return nil, err
	}
	resp := decodeCompileResponse(r)
	if r.err != nil {
		return nil, r.err
	}
	return resp, nil
}

// EncodeCompileBatchResponse appends a compile-batch-response frame.
func EncodeCompileBatchResponse(dst []byte, resp *wire.CompileBatchResponse) []byte {
	w := getWriter()
	defer putWriter(w)
	w.u64(uint64(len(resp.Items)))
	for _, item := range resp.Items {
		var flags byte
		if item.CompileResponse != nil {
			flags |= itemResponse
		}
		if item.Retryable {
			flags |= itemRetryable
		}
		w.byte(flags)
		if item.CompileResponse != nil {
			encodeCompileResponse(w, item.CompileResponse)
		}
		w.str(item.Error)
		w.str(item.ErrorCode)
	}
	return frame(dst, kindCompileBatchResponse, w.buf)
}

// DecodeCompileBatchResponse parses a compile-batch-response frame.
func DecodeCompileBatchResponse(data []byte) (*wire.CompileBatchResponse, error) {
	r, err := decodeFrame(data, kindCompileBatchResponse)
	if err != nil {
		return nil, err
	}
	n := r.count()
	resp := &wire.CompileBatchResponse{}
	if n > 0 && r.err == nil {
		resp.Items = make([]wire.BatchItemResult, 0, n)
	}
	for i := 0; i < n && r.err == nil; i++ {
		var item wire.BatchItemResult
		flags := r.byte()
		if flags&itemResponse != 0 {
			item.CompileResponse = decodeCompileResponse(r)
		}
		item.Retryable = flags&itemRetryable != 0
		item.Error = r.str()
		item.ErrorCode = r.str()
		if r.err == nil {
			resp.Items = append(resp.Items, item)
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	return resp, nil
}
