package main

import (
	"strings"
	"testing"
)

// TestReportEvaluatesEveryGate: a failing first gate must not hide the
// gates after it, and the table's verdict is failed.
func TestReportEvaluatesEveryGate(t *testing.T) {
	var b strings.Builder
	ok := report(&b, "design bounds", []gate{
		{name: "provenance_append", value: 1500, bound: 270, basis: "1% of compile_loop"},
		{name: "cache_hit", value: 20, bound: 270, basis: "1% of compile_loop"},
		{name: "request_decode_ratio", value: 2, bound: 5, floor: true, basis: "JSON/binary floor"},
		{name: "disk_hit_ns_op", value: 9, basis: "baseline missing", skip: true},
	})
	if ok {
		t.Fatal("report passed with failing gates")
	}
	lines := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
	if len(lines) != 5 || lines[0] != "design bounds:" {
		t.Fatalf("table:\n%s", b.String())
	}
	for i, want := range []struct{ name, verdict string }{
		{"provenance_append", "FAIL"},
		{"cache_hit", "ok"},
		{"request_decode_ratio", "FAIL"},
		{"disk_hit_ns_op", "skipped"},
	} {
		l := lines[i+1]
		if !strings.HasPrefix(l, want.name+" ") || !strings.HasSuffix(l, " "+want.verdict) {
			t.Errorf("row %d = %q, want gate %s with verdict %s", i, l, want.name, want.verdict)
		}
	}
}

// TestReportBoundsAreInclusive: a value exactly at its bound passes, on
// either side.
func TestReportBoundsAreInclusive(t *testing.T) {
	var b strings.Builder
	if !report(&b, "t", []gate{
		{name: "health_allocs", value: 0, bound: 0},
		{name: "request_decode_ratio", value: 5, bound: 5, floor: true},
	}) {
		t.Fatalf("gates at their bound failed:\n%s", b.String())
	}
}
