package wire

// This file defines the response envelopes of the v2 API surface. They
// are shared verbatim by internal/server (which writes them) and
// ltspclient (which decodes them), so the two sides cannot drift.

// LoadReportJSON mirrors core.LoadReport on the wire.
type LoadReportJSON struct {
	ID       int    `json:"id"`
	Critical bool   `json:"critical"`
	BaseLat  int    `json:"baseLat"`
	SchedLat int    `json:"schedLat"`
	ExtraD   int    `json:"extraD"`
	ClusterK int    `json:"clusterK"`
	Hint     string `json:"hint"`
}

// RegStatsJSON mirrors regalloc.Stats on the wire.
type RegStatsJSON struct {
	GR     int `json:"gr"`
	RotGR  int `json:"rotGR"`
	FR     int `json:"fr"`
	RotFR  int `json:"rotFR"`
	PR     int `json:"pr"`
	RotPR  int `json:"rotPR"`
	Spills int `json:"spills"`
}

// HLOJSON summarizes the prefetcher's decisions on the wire.
type HLOJSON struct {
	IIEst           int `json:"iiEst"`
	PrefetchesAdded int `json:"prefetchesAdded"`
	HintsSet        int `json:"hintsSet"`
}

// CompileResponse is the body of a successful POST /v2/compile.
type CompileResponse struct {
	// Hash is the content-addressed artifact key; POST /v2/simulate
	// accepts it in place of an inline loop.
	Hash string `json:"hash"`
	// Cached reports whether the artifact came from the cache (including
	// piggybacking on an identical in-flight compilation).
	Cached    bool `json:"cached"`
	Pipelined bool `json:"pipelined"`
	II        int  `json:"ii,omitempty"`
	Stages    int  `json:"stages,omitempty"`
	ResII     int  `json:"resII,omitempty"`
	RecII     int  `json:"recII,omitempty"`
	// Backend names the scheduling backend that produced the kernel;
	// ProvenII reports a provably optimal II (exact backend, or the
	// MinII lower bound).
	Backend  string           `json:"backend,omitempty"`
	ProvenII bool             `json:"provenII,omitempty"`
	Reg      RegStatsJSON     `json:"reg"`
	Loads    []LoadReportJSON `json:"loads,omitempty"`
	HLO      *HLOJSON         `json:"hlo,omitempty"`
	// Outcome is the pipeliner result class (obs.Outcome*); the full
	// decision trace is at GET /v2/artifacts/{hash}/trace.
	Outcome string `json:"outcome"`
	Listing string `json:"listing"`
	Diagram string `json:"diagram,omitempty"`
}

// BatchItemResult is one element of a CompileBatchResponse: either the
// embedded compile response fields or a per-item error. Item order
// matches the request.
type BatchItemResult struct {
	*CompileResponse
	// Error and ErrorCode describe a per-item failure; Retryable reports
	// whether resubmitting just this item could succeed.
	Error     string `json:"error,omitempty"`
	ErrorCode string `json:"errorCode,omitempty"`
	Retryable bool   `json:"retryable,omitempty"`
}

// CompileBatchResponse is the body of POST /v2/compile-batch. The batch
// succeeds as a whole (HTTP 200) even when individual items fail; each
// failed item carries its own error.
type CompileBatchResponse struct {
	Items []BatchItemResult `json:"items"`
}

// AcctJSON mirrors sim.Accounting on the wire.
type AcctJSON struct {
	Total        int64 `json:"total"`
	Unstalled    int64 `json:"unstalled"`
	ExeBubble    int64 `json:"exeBubble"`
	L1DFPUBubble int64 `json:"l1dFpuBubble"`
	RSEBubble    int64 `json:"rseBubble"`
	FlushBubble  int64 `json:"flushBubble"`
	FEBubble     int64 `json:"feBubble"`
}

// SimulateResponse is the body of a successful POST /v2/simulate.
type SimulateResponse struct {
	Hash          string   `json:"hash"`
	Cached        bool     `json:"cached"`
	Cycles        int64    `json:"cycles"`
	KernelIters   int64    `json:"kernelIters"`
	Acct          AcctJSON `json:"acct"`
	LoadsByLevel  [5]int64 `json:"loadsByLevel"`
	OzQPeak       int      `json:"ozqPeak"`
	BankConflicts int64    `json:"bankConflicts"`
}
