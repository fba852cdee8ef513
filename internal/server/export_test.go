package server

import (
	"encoding/json"
	"strings"

	"ltsp"
	"ltsp/internal/ir"
)

// SetTestCompileHook installs (or, with nil, clears) the compile-flight
// hook tests use to seed panics behind the containment boundary.
func SetTestCompileHook(fn func(*ir.Loop)) { testCompileHook = fn }

// SetTestVerifyHook installs (or clears) the verification verdict
// override tests use to exercise the verify-failure path.
func SetTestVerifyHook(fn func(*ltsp.Compiled) error) { testVerifyHook = fn }

// QueueDepth reports how many requests and batch items the shedder
// counts as waiting for a worker slot.
func QueueDepth(s *Server) int64 { return s.shed.queued.Load() }

// RegisteredMetric is one metric registry entry: its JSON path ("" when
// exposition-only), its Prometheus family ("" when JSON-only), labels
// and TYPE.
type RegisteredMetric struct{ Path, Family, Labels, Kind string }

// RenderMetrics renders one metric set of s in both forms, the JSON
// document and the text exposition, and lists the set's entries.
func RenderMetrics(s *Server) (doc []byte, prom string, entries []RegisteredMetric) {
	ms := s.metricSet()
	doc, _ = json.Marshal(ms.jsonDoc())
	var b strings.Builder
	_ = ms.writeProm(&b)
	for _, m := range ms {
		entries = append(entries, RegisteredMetric{m.path, m.family, m.labels, m.kind})
	}
	return doc, b.String(), entries
}
