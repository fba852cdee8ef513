package server_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"ltsp/internal/server"
)

// promDoc is a parsed Prometheus text exposition: samples keyed by
// "name{labels}" plus the HELP/TYPE declarations per family.
type promDoc struct {
	samples map[string]float64
	types   map[string]string // family -> counter | gauge | histogram
	help    map[string]bool
	order   []string // sample keys in exposition order
}

// parseProm parses (and structurally validates) the text exposition
// format 0.0.4: every sample line is `name{labels} value`, every family
// has HELP and TYPE comments, and nothing else appears.
func parseProm(t *testing.T, body string) *promDoc {
	t.Helper()
	doc := &promDoc{
		samples: make(map[string]float64),
		types:   make(map[string]string),
		help:    make(map[string]bool),
	}
	for ln, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			parts := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(parts) != 2 || parts[1] == "" {
				t.Fatalf("line %d: HELP without text: %q", ln+1, line)
			}
			doc.help[parts[0]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.SplitN(strings.TrimPrefix(line, "# TYPE "), " ", 2)
			if len(parts) != 2 {
				t.Fatalf("line %d: bad TYPE: %q", ln+1, line)
			}
			switch parts[1] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("line %d: unknown TYPE %q", ln+1, parts[1])
			}
			if doc.types[parts[0]] != "" {
				t.Fatalf("line %d: duplicate TYPE for %s", ln+1, parts[0])
			}
			doc.types[parts[0]] = parts[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unexpected comment form: %q", ln+1, line)
		}
		// Sample line: name or name{labels}, one space, float value.
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: no value separator: %q", ln+1, line)
		}
		key, val := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("line %d: bad value %q: %v", ln+1, val, err)
		}
		name := key
		if i := strings.IndexByte(key, '{'); i >= 0 {
			if !strings.HasSuffix(key, "}") {
				t.Fatalf("line %d: unterminated labels: %q", ln+1, line)
			}
			name = key[:i]
		}
		for _, r := range name {
			if !(r == '_' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9') {
				t.Fatalf("line %d: bad metric name %q", ln+1, name)
			}
		}
		family := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if f := strings.TrimSuffix(name, suf); f != name && doc.types[f] == "histogram" {
				family = f
			}
		}
		if doc.types[family] == "" {
			t.Fatalf("line %d: sample %s has no TYPE declaration", ln+1, name)
		}
		if !doc.help[family] {
			t.Fatalf("line %d: sample %s has no HELP", ln+1, name)
		}
		if _, dup := doc.samples[key]; dup {
			t.Fatalf("line %d: duplicate sample %q", ln+1, key)
		}
		doc.samples[key] = v
		doc.order = append(doc.order, key)
	}
	return doc
}

// scrapeProm fetches /metrics the way a Prometheus scraper does.
func scrapeProm(t *testing.T, base string) *promDoc {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/plain;version=0.0.4;q=0.5,*/*;q=0.1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape: %s: %s", resp.Status, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != server.PromContentType {
		t.Fatalf("scrape Content-Type = %q, want %q", ct, server.PromContentType)
	}
	return parseProm(t, string(body))
}

// checkHistogram validates one histogram instance: cumulative buckets
// are monotone and the +Inf bucket equals the count.
func checkHistogram(t *testing.T, doc *promDoc, name, labels string) {
	t.Helper()
	wrap := func(extra string) string {
		switch {
		case labels == "" && extra == "":
			return ""
		case labels == "":
			return "{" + extra + "}"
		case extra == "":
			return "{" + labels + "}"
		default:
			return "{" + labels + "," + extra + "}"
		}
	}
	bucketPrefix := name + `_bucket{le="`
	if labels != "" {
		bucketPrefix = name + "_bucket{" + labels + `,le="`
	}
	prev := -1.0
	var inf float64
	seen := 0
	for _, key := range doc.order {
		if !strings.HasPrefix(key, bucketPrefix) {
			continue
		}
		v := doc.samples[key]
		if v < prev {
			t.Errorf("%s: bucket %s = %v below previous %v (must be cumulative)", name, key, v, prev)
		}
		prev = v
		inf = v // exposition order ends at +Inf
		seen++
	}
	if seen == 0 {
		t.Fatalf("histogram %s%s has no buckets", name, wrap(""))
	}
	count, ok := doc.samples[name+"_count"+wrap("")]
	if !ok {
		t.Fatalf("histogram %s%s has no _count", name, wrap(""))
	}
	if inf != count {
		t.Errorf("%s%s: le=+Inf bucket %v != count %v", name, wrap(""), inf, count)
	}
	if _, ok := doc.samples[name+"_sum"+wrap("")]; !ok {
		t.Errorf("histogram %s%s has no _sum", name, wrap(""))
	}
}

// TestPrometheusExposition: a scraper's Accept header yields valid text
// exposition carrying the request and per-stage histograms.
func TestPrometheusExposition(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	for k := int64(0); k < 3; k++ {
		resp, body := post(t, ts.URL+"/v2/compile", compileRequest(t, copyAddLoop(4100+k)))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("compile: %s: %s", resp.Status, body)
		}
	}

	doc := scrapeProm(t, ts.URL)
	for _, name := range []string{
		"ltspd_compile_requests_total", "ltspd_cache_misses_total",
	} {
		if doc.samples[name] != 3 {
			t.Errorf("%s = %v, want 3", name, doc.samples[name])
		}
		if doc.types[name] != "counter" {
			t.Errorf("%s TYPE = %q, want counter", name, doc.types[name])
		}
	}
	if doc.samples["ltspd_uptime_seconds"] <= 0 {
		t.Error("uptime gauge not positive")
	}
	if v, ok := doc.samples[`ltspd_compile_outcomes_total{outcome="pipelined"}`]; !ok || v != 3 {
		t.Errorf("pipelined outcome = %v (present %v), want 3", v, ok)
	}

	checkHistogram(t, doc, "ltspd_compile_latency_ms", "")
	checkHistogram(t, doc, "ltspd_simulate_latency_ms", "")
	for _, stage := range []string{"queue_wait", "mem_lookup", "disk_read", "peer_leg", "compile", "verify"} {
		checkHistogram(t, doc, "ltspd_stage_latency_ms", fmt.Sprintf("stage=%q", stage))
	}
	// The stages actually exercised observed once per compile.
	for _, stage := range []string{"queue_wait", "mem_lookup", "compile"} {
		key := fmt.Sprintf(`ltspd_stage_latency_ms_count{stage=%q}`, stage)
		if doc.samples[key] != 3 {
			t.Errorf("%s = %v, want 3", key, doc.samples[key])
		}
	}
}

// TestPrometheusJSONConsistency walks every registered metric of one
// render, with every optional section live (store, provenance log,
// 2-peer ring): a metric in both forms reports the same value in each —
// counters and gauges exactly, histograms bucket by bucket plus count
// and sum — and neither form carries anything the registry does not
// declare.
func TestPrometheusJSONConsistency(t *testing.T) {
	srvs, tss, _ := selfhealNodes(t, 2, nil)
	base := tss[0].URL
	for k := int64(0); k < 4; k++ {
		resp, body := post(t, base+"/v2/compile", compileRequest(t, copyAddLoop(4200+k)))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("compile: %s: %s", resp.Status, body)
		}
	}
	// Re-request one loop so hits and misses diverge.
	post(t, base+"/v2/compile", compileRequest(t, copyAddLoop(4200)))

	raw, text, entries := server.RenderMetrics(srvs[0])
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	prom := parseProm(t, text)
	bounds, _ := doc["latency_bounds_ms"].([]any)
	if len(bounds) == 0 {
		t.Fatal("JSON document has no latency_bounds_ms")
	}

	labelled := func(family, labels, extra string) string {
		pairs := strings.Trim(labels+","+extra, ",")
		if pairs == "" {
			return family
		}
		return family + "{" + pairs + "}"
	}
	registered := map[string]bool{} // JSON paths
	seen := map[string]bool{}       // Prometheus sample keys
	sample := func(key string) float64 {
		t.Helper()
		v, ok := prom.samples[key]
		if !ok {
			t.Errorf("registered sample %s missing from the exposition", key)
		}
		seen[key] = true
		return v
	}
	for _, e := range entries {
		var jv any
		if e.Path != "" {
			registered[e.Path] = true
			var ok bool
			if jv, ok = lookupPath(doc, e.Path); !ok {
				t.Errorf("registered path %s missing from the JSON document", e.Path)
				continue
			}
		}
		if e.Family == "" {
			continue
		}
		if prom.types[e.Family] != e.Kind {
			t.Errorf("%s: TYPE %q, registered as %q", e.Family, prom.types[e.Family], e.Kind)
		}
		if e.Kind != "histogram" {
			pv := sample(labelled(e.Family, e.Labels, ""))
			if e.Path != "" && jv != pv {
				t.Errorf("%s: json %v, prom %v", e.Path, jv, pv)
			}
			continue
		}
		h := jv.(map[string]any)
		buckets := h["buckets"].(map[string]any)
		if len(buckets) != len(bounds)+1 {
			t.Errorf("%s: %d buckets, want %d bounds + Inf", e.Path, len(buckets), len(bounds))
		}
		for _, ub := range append(bounds, "+Inf") {
			le := fmt.Sprint(ub)
			if f, ok := ub.(float64); ok {
				le = strconv.FormatFloat(f, 'g', -1, 64)
			}
			pv := sample(labelled(e.Family+"_bucket", e.Labels, fmt.Sprintf("le=%q", le)))
			if jv := buckets["le_"+le]; jv != pv {
				t.Errorf("%s bucket le=%s: json %v, prom %v", e.Path, le, jv, pv)
			}
		}
		if pv := sample(labelled(e.Family+"_count", e.Labels, "")); h["count"] != pv {
			t.Errorf("%s count: json %v, prom %v", e.Path, h["count"], pv)
		}
		if pv := sample(labelled(e.Family+"_sum", e.Labels, "")); h["sum_ms"] != pv {
			t.Errorf("%s sum: json %v, prom %v", e.Path, h["sum_ms"], pv)
		}
	}
	for _, key := range prom.order {
		if !seen[key] {
			t.Errorf("exposition sample %s is not a registered metric", key)
		}
	}
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		if registered[prefix] {
			return
		}
		obj, ok := v.(map[string]any)
		if !ok {
			t.Errorf("JSON value %s is not a registered metric", prefix)
			return
		}
		for k, sub := range obj {
			walk(strings.TrimPrefix(prefix+"."+k, "."), sub)
		}
	}
	walk("", doc)
}

// lookupPath resolves a dotted JSON key path in a decoded document.
func lookupPath(doc map[string]any, path string) (any, bool) {
	var v any = doc
	for _, k := range strings.Split(path, ".") {
		obj, ok := v.(map[string]any)
		if !ok {
			return nil, false
		}
		if v, ok = obj[k]; !ok {
			return nil, false
		}
	}
	return v, true
}

// TestMetricsContentNegotiation: JSON stays the default; only an Accept
// naming text/plain selects the Prometheus form.
func TestMetricsContentNegotiation(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	for _, tc := range []struct {
		accept   string
		wantProm bool
	}{
		{"", false},
		{"application/json", false},
		{"*/*", false},
		{"text/plain", true},
		{"text/plain;version=0.0.4", true},
		{"application/openmetrics-text;q=0.8, text/plain;q=0.5", true},
	} {
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
		if err != nil {
			t.Fatal(err)
		}
		if tc.accept != "" {
			req.Header.Set("Accept", tc.accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		ct := resp.Header.Get("Content-Type")
		isProm := ct == server.PromContentType
		if isProm != tc.wantProm {
			t.Errorf("Accept %q: Content-Type %q (prom=%v), want prom=%v", tc.accept, ct, isProm, tc.wantProm)
		}
	}
}
