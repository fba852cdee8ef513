package server_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"testing"

	"ltsp/internal/buildinfo"
	"ltsp/internal/golden"
	"ltsp/internal/wire"
)

// TestMetricsNameSet fences the /metrics name set: the sorted JSON key
// paths (with their JSON value types) and the Prometheus HELP, TYPE and
// sample names (labels kept, values stripped) of a server with every
// optional section live — a store, a provenance log and a 2-peer ring,
// after one compile, one simulate and one batch — must match
// testdata/metrics_names.golden byte for byte. A renamed, dropped or
// added metric fails here; regenerate with -update only on purpose.
func TestMetricsNameSet(t *testing.T) {
	_, tss, _ := selfhealNodes(t, 2, nil)
	base := tss[0].URL

	req := compileRequest(t, copyAddLoop(4300))
	resp, body := post(t, base+"/v2/compile", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: %s: %s", resp.Status, body)
	}
	var cr struct {
		Hash string `json:"hash"`
	}
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	resp, body = post(t, base+"/v2/simulate", wire.SimulateRequest{Version: wire.Version, Hash: cr.Hash, Trip: 64})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate: %s: %s", resp.Status, body)
	}
	item := compileRequest(t, copyAddLoop(4301))
	resp, body = post(t, base+"/v2/compile-batch", wire.CompileBatchRequest{
		Version: wire.Version, Items: []wire.CompileItem{{Loop: item.Loop, Options: item.Options}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %s: %s", resp.Status, body)
	}

	var doc map[string]any
	get(t, base+"/metrics", &doc)
	var lines []string
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		obj, ok := v.(map[string]any)
		if !ok {
			lines = append(lines, "json "+prefix+" "+jsonKind(v))
			return
		}
		for k, sub := range obj {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			walk(p, sub)
		}
	}
	walk("", doc)

	// The build_info labels carry the toolchain version; normalize them
	// so the golden does not depend on the Go release.
	norm := strings.NewReplacer(
		fmt.Sprintf("version=%q", buildinfo.Version), `version="<version>"`,
		fmt.Sprintf("go=%q", buildinfo.GoVersion()), `go="<go>"`)
	for _, line := range strings.Split(scrapeRaw(t, base), "\n") {
		if line == "" {
			continue
		}
		if !strings.HasPrefix(line, "#") {
			line = line[:strings.LastIndexByte(line, ' ')]
		}
		lines = append(lines, "prom "+norm.Replace(line))
	}
	sort.Strings(lines)
	rows := make([]golden.Row, len(lines))
	for i, l := range lines {
		rows[i] = golden.Row{Key: l}
	}
	golden.Check(t, "testdata/metrics_names.golden", rows)
}

// jsonKind names a decoded JSON value's type.
func jsonKind(v any) string {
	switch v.(type) {
	case float64:
		return "number"
	case string:
		return "string"
	case bool:
		return "bool"
	case []any:
		return "array"
	case nil:
		return "null"
	}
	return "object"
}

// scrapeRaw fetches the Prometheus text form of /metrics.
func scrapeRaw(t *testing.T, base string) string {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/plain")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}
