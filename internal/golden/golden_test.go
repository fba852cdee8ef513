package golden

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// recorder stands in for *testing.T so a test can watch Check fail.
type recorder struct {
	testing.TB
	lines  []string
	failed bool
}

func (r *recorder) Helper() {}

func (r *recorder) Errorf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
	r.failed = true
}

func (r *recorder) Fatalf(format string, args ...any) { r.Errorf(format, args...) }

// sampleRows is a small fence: keys with spaces, readable fields, a bare
// flag and digests.
func sampleRows() []Row {
	return []Row{
		{Key: "429.mcf/refresh_potential tol=false", Fields: []Field{F("ii", 5), F("attempts", 12), F("reduced", false)}, Digest: "aa11"},
		{Key: "429.mcf/refresh_potential tol=true", Fields: []Field{F("ii", 5), F("attempts", 12), F("reduced", true)}, Digest: "bb22"},
		{Key: "470.lbm/stream tol=true", Fields: []Field{{Name: "err"}}, Digest: "cc33"},
	}
}

// writeGolden records rows as the golden file and returns its path.
func writeGolden(t *testing.T, rows []Row) string {
	t.Helper()
	text, err := format(rows)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "golden.txt")
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// check runs Check, in compare mode, against a recorder and returns what
// it reported.
func check(t *testing.T, path string, rows []Row) *recorder {
	t.Helper()
	setUpdate(t, false)
	r := &recorder{}
	Check(r, path, rows)
	return r
}

func TestFormatRoundTrip(t *testing.T) {
	rows := append(sampleRows(), Row{Key: "json uptime_seconds number"}, Row{Key: "fig5", Digest: "dd44"})
	text, err := format(rows)
	if err != nil {
		t.Fatal(err)
	}
	want := "429.mcf/refresh_potential tol=false\tii=5 attempts=12 reduced=false\taa11\n" +
		"429.mcf/refresh_potential tol=true\tii=5 attempts=12 reduced=true\tbb22\n" +
		"470.lbm/stream tol=true\terr\tcc33\n" +
		"json uptime_seconds number\n" +
		"fig5\t\tdd44\n"
	if text != want {
		t.Fatalf("format:\n%s\nwant:\n%s", text, want)
	}
	back, err := parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, rows) {
		t.Fatalf("parse(format(rows)) = %+v, want %+v", back, rows)
	}
}

func TestFormatRejectsUnreadableRows(t *testing.T) {
	for _, rows := range [][]Row{
		{{Key: ""}},
		{{Key: "a\tb"}},
		{{Key: "a"}, {Key: "a"}},
		{{Key: "a", Fields: []Field{F("x y", 1)}}},
		{{Key: "a", Fields: []Field{F("x", "1 2")}}},
		{{Key: "a", Digest: "d\te"}},
		{{Key: "a\nb"}},
	} {
		if _, err := format(rows); err == nil {
			t.Errorf("format(%+v) accepted", rows)
		}
	}
}

func TestCheckPassesOnEqualRows(t *testing.T) {
	path := writeGolden(t, sampleRows())
	if r := check(t, path, sampleRows()); r.failed {
		t.Fatalf("equal rows failed: %q", r.lines)
	}
}

func TestCheckNamesMovedFields(t *testing.T) {
	path := writeGolden(t, sampleRows())
	rows := sampleRows()
	rows[1].Fields = []Field{F("ii", 4), F("attempts", 9), F("reduced", true)}
	rows[1].Digest = "ee55"
	r := check(t, path, rows)
	want := []string{
		"429.mcf/refresh_potential tol=true: ii 5 → 4, attempts 12 → 9",
		"1 of 3 rows differ (" + path + ")",
	}
	if !reflect.DeepEqual(r.lines, want) {
		t.Fatalf("report %q, want %q", r.lines, want)
	}
}

func TestCheckFlagAndAbsentFields(t *testing.T) {
	path := writeGolden(t, sampleRows())
	rows := sampleRows()
	rows[2].Fields = []Field{F("ii", 3)}
	r := check(t, path, rows)
	if len(r.lines) != 2 || r.lines[0] != "470.lbm/stream tol=true: err set → -, ii - → 3" {
		t.Fatalf("report %q", r.lines)
	}
}

func TestCheckDigestOnlyChange(t *testing.T) {
	path := writeGolden(t, sampleRows())
	rows := sampleRows()
	rows[0].Digest = "ff66"
	r := check(t, path, rows)
	want := []string{
		"429.mcf/refresh_potential tol=false: digest changed, fields equal",
		"1 of 3 rows differ (" + path + ")",
	}
	if !reflect.DeepEqual(r.lines, want) {
		t.Fatalf("report %q, want %q", r.lines, want)
	}
}

func TestCheckMissingAndAddedKeys(t *testing.T) {
	path := writeGolden(t, sampleRows())
	rows := sampleRows()
	// Drop the first row and insert a new one in front: every row after
	// the insertion shifts by one line, yet only the two keys report.
	rows = append([]Row{{Key: "433.milc/mult_su3 tol=false", Fields: []Field{F("ii", 2)}, Digest: "0a0a"}}, rows[1:]...)
	r := check(t, path, rows)
	want := []string{
		"missing: 429.mcf/refresh_potential tol=false",
		"added: 433.milc/mult_su3 tol=false",
		"2 of 4 rows differ (" + path + ")",
	}
	if !reflect.DeepEqual(r.lines, want) {
		t.Fatalf("report %q, want %q", r.lines, want)
	}
}

func TestCheckCapsReport(t *testing.T) {
	var old, cur []Row
	for i := 0; i < 15; i++ {
		old = append(old, Row{Key: fmt.Sprintf("k%02d", i), Fields: []Field{F("ii", i)}, Digest: "d"})
		cur = append(cur, Row{Key: fmt.Sprintf("k%02d", i), Fields: []Field{F("ii", i+1)}, Digest: "d"})
	}
	path := writeGolden(t, old)
	r := check(t, path, cur)
	if len(r.lines) != maxReport+1 {
		t.Fatalf("%d report lines, want %d: %q", len(r.lines), maxReport+1, r.lines)
	}
	if r.lines[0] != "k00: ii 0 → 1" {
		t.Errorf("first line %q", r.lines[0])
	}
	if last := r.lines[maxReport]; last != "15 of 15 rows differ ("+path+")" {
		t.Errorf("summary %q", last)
	}
}

func TestCheckReorderFails(t *testing.T) {
	path := writeGolden(t, sampleRows())
	rows := sampleRows()
	rows[0], rows[1] = rows[1], rows[0]
	r := check(t, path, rows)
	if len(r.lines) != 1 || !strings.Contains(r.lines[0], "another order") {
		t.Fatalf("report %q", r.lines)
	}
}

func TestCheckMissingFile(t *testing.T) {
	r := check(t, filepath.Join(t.TempDir(), "none.txt"), sampleRows())
	if len(r.lines) != 1 || !strings.Contains(r.lines[0], "-update") {
		t.Fatalf("report %q", r.lines)
	}
}

func TestUpdateRoundTrip(t *testing.T) {
	path := writeGolden(t, sampleRows())
	rows := sampleRows()
	rows[0].Fields[0] = F("ii", 6)
	rows = append(rows, Row{Key: "new", Digest: "0b0b"})

	setUpdate(t, true)
	r := &recorder{}
	if Check(r, path, rows); r.failed {
		t.Fatalf("-update failed: %q", r.lines)
	}
	if r := check(t, path, rows); r.failed {
		t.Fatalf("check after -update failed: %q", r.lines)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := format(rows); string(data) != want {
		t.Fatalf("rewritten file:\n%s\nwant:\n%s", data, want)
	}
}

// setUpdate sets the -update flag for the rest of the test.
func setUpdate(t *testing.T, on bool) {
	t.Helper()
	prev := flag.Lookup("update").Value.String()
	if err := flag.Set("update", fmt.Sprint(on)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { flag.Set("update", prev) })
}
