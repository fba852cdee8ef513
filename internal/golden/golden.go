// Package golden is the one harness behind the repository's
// byte-for-byte test fences. A fence computes one Row per point it pins
// and hands them to Check, which compares them with a committed testdata
// file by key and reports the readable fields that moved. Run the tests
// with -update to rewrite the files after an intended change.
//
// The file holds one line per row. A row with neither fields nor digest
// is its key alone; any other row is three tab-separated columns: the
// key, the space-separated fields, and the digest (either of the last two
// may be empty).
package golden

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata golden files")

// maxReport caps the difference lines one failing Check prints.
const maxReport = 10

// Field is one readable name=value column of a row. An empty Value makes
// it a bare flag, written as the name alone.
type Field struct{ Name, Value string }

// F builds a field from any value, formatted with fmt.Sprint.
func F(name string, value any) Field { return Field{name, fmt.Sprint(value)} }

func (f Field) String() string {
	if f.Value == "" {
		return f.Name
	}
	return f.Name + "=" + f.Value
}

// Row is one pinned point: a unique key, the readable fields a reviewer
// wants to see move, and an optional digest of everything else.
type Row struct {
	Key    string
	Fields []Field
	Digest string
}

// Check compares rows with the golden file at path, or rewrites the file
// when the tests run with -update. On a mismatch it reports each missing
// and added key and, for a changed row, the fields that moved, then fails
// with the count of differing rows. It returns after every Fatalf, so a
// testing.TB that records failures instead of stopping sees one verdict.
func Check(t testing.TB, path string, rows []Row) {
	t.Helper()
	text, err := format(rows)
	if err != nil {
		t.Fatalf("golden: %s: %v", path, err)
		return
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatalf("golden: %v", err)
			return
		}
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatalf("golden: %v", err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden: %v (run with -update to create it)", err)
		return
	}
	if string(data) == text {
		return
	}
	want, err := parse(string(data))
	if err != nil {
		t.Fatalf("golden: %s: %v", path, err)
		return
	}
	lines, total := diff(want, rows)
	if len(lines) == 0 {
		t.Fatalf("golden: %s has the same rows in another order or layout (run with -update)", path)
		return
	}
	for i, l := range lines {
		if i == maxReport {
			break
		}
		t.Errorf("%s", l)
	}
	t.Fatalf("%d of %d rows differ (%s)", len(lines), total, path)
}

// format renders rows in the file format. It parses the text back and
// rejects a row that does not survive the trip, such as a duplicate key,
// a key with a tab or a field value with a space.
func format(rows []Row) (string, error) {
	var b strings.Builder
	for _, r := range rows {
		b.WriteString(r.Key)
		if len(r.Fields) > 0 || r.Digest != "" {
			fs := make([]string, len(r.Fields))
			for i, f := range r.Fields {
				fs[i] = f.String()
			}
			fmt.Fprintf(&b, "\t%s\t%s", strings.Join(fs, " "), r.Digest)
		}
		b.WriteByte('\n')
	}
	back, err := parse(b.String())
	if err != nil {
		return "", err
	}
	for i, r := range rows {
		if i >= len(back) || back[i].Key != r.Key || back[i].Digest != r.Digest || !slices.Equal(back[i].Fields, r.Fields) {
			return "", fmt.Errorf("row %q does not fit the file format", r.Key)
		}
	}
	return b.String(), nil
}

// parse reads a golden file back into rows.
func parse(text string) ([]Row, error) {
	var rows []Row
	if text == "" {
		return nil, nil
	}
	seen := map[string]bool{}
	for i, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		cols := strings.Split(line, "\t")
		r := Row{Key: cols[0]}
		switch len(cols) {
		case 1:
		case 3:
			for _, tok := range strings.Fields(cols[1]) {
				name, value, _ := strings.Cut(tok, "=")
				r.Fields = append(r.Fields, Field{name, value})
			}
			r.Digest = cols[2]
		default:
			return nil, fmt.Errorf("line %d: %d tab-separated columns, want 1 or 3", i+1, len(cols))
		}
		if r.Key == "" || seen[r.Key] {
			return nil, fmt.Errorf("line %d: empty or duplicate key %q", i+1, r.Key)
		}
		seen[r.Key] = true
		rows = append(rows, r)
	}
	return rows, nil
}

// diff matches want and got by key. It returns one line per differing
// row (missing keys and changed rows in the file's order, then added
// keys) and the number of distinct keys on both sides.
func diff(want, got []Row) (lines []string, total int) {
	byKey := make(map[string]Row, len(got))
	for _, r := range got {
		byKey[r.Key] = r
	}
	wantKeys := make(map[string]bool, len(want))
	for _, w := range want {
		wantKeys[w.Key] = true
		g, ok := byKey[w.Key]
		if !ok {
			lines = append(lines, "missing: "+w.Key)
		} else if moved := fieldDiff(w.Fields, g.Fields); moved != "" {
			lines = append(lines, w.Key+": "+moved)
		} else if w.Digest != g.Digest {
			lines = append(lines, w.Key+": digest changed, fields equal")
		}
	}
	total = len(want)
	for _, g := range got {
		if !wantKeys[g.Key] {
			lines = append(lines, "added: "+g.Key)
			total++
		}
	}
	return lines, total
}

// fieldDiff lists the fields whose value moved from want to got, as
// "name old → new", in want's field order and then got's. An absent
// field reads "-" and a bare flag reads "set".
func fieldDiff(want, got []Field) string {
	show := func(fs []Field, name string) string {
		for _, f := range fs {
			if f.Name == name {
				if f.Value == "" {
					return "set"
				}
				return f.Value
			}
		}
		return "-"
	}
	var moved []string
	done := map[string]bool{}
	for _, f := range append(append([]Field(nil), want...), got...) {
		if done[f.Name] {
			continue
		}
		done[f.Name] = true
		if w, g := show(want, f.Name), show(got, f.Name); w != g {
			moved = append(moved, f.Name+" "+w+" → "+g)
		}
	}
	return strings.Join(moved, ", ")
}
