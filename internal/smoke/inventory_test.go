package smoke

import (
	"bufio"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// inventoryHeader opens DESIGN.md's metric inventory table.
const inventoryHeader = "| metric | question | reader |"

// inventory parses DESIGN.md's metric inventory into name → reader.
func inventory(t *testing.T, root string) map[string]string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(root, "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(b), "\n")
	start := -1
	for i, l := range lines {
		if strings.TrimSpace(l) == inventoryHeader {
			start = i + 2 // past the |---| separator
			break
		}
	}
	if start < 0 {
		t.Fatalf("DESIGN.md has no %q table", inventoryHeader)
	}
	rows := map[string]string{}
	for _, l := range lines[start:] {
		if !strings.HasPrefix(l, "|") {
			break
		}
		cells := strings.Split(strings.Trim(l, "| "), "|")
		name := strings.Trim(strings.TrimSpace(cells[0]), "`")
		if len(cells) != 3 || strings.TrimSpace(cells[1]) == "" || strings.TrimSpace(cells[2]) == "" {
			t.Errorf("inventory row %q: want metric | question | reader, all filled", l)
			continue
		}
		if _, dup := rows[name]; dup {
			t.Errorf("inventory lists %s twice", name)
		}
		rows[name] = strings.TrimSpace(cells[2])
	}
	return rows
}

// registration matches a metric registered under a string literal, the
// same count `make loc` prints.
var registration = regexp.MustCompile(`\.(?:Counter|Gauge|GaugeFunc|Histogram)\("([^"]*)"`)

// registeredNames returns every metric name non-test Go code outside
// the benchmark module registers, with the file registering it.
func registeredNames(t *testing.T, root string) map[string]string {
	t.Helper()
	names := map[string]string{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", "bench", ".bench_build":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range registration.FindAllSubmatch(b, -1) {
			names[string(m[1])] = path
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// scrapeFamilies returns the metric family names (the "# TYPE" lines)
// of one /metrics exposition.
func scrapeFamilies(t *testing.T, url string) []string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			out = append(out, f[2])
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestMetricInventory holds the registered metrics and DESIGN.md's
// inventory to one set: every name the source registers or a daemon
// exposes has a row naming its reader, and every row names a metric
// that non-test code registers.
func TestMetricInventory(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke test")
	}
	root := repoRoot(t)
	rows := inventory(t, root)
	registered := registeredNames(t, root)
	for name := range rows {
		if _, ok := registered[name]; !ok {
			t.Errorf("DESIGN.md inventory lists %s, which no non-test code registers", name)
		}
	}
	for name, file := range registered {
		if _, ok := rows[name]; !ok {
			t.Errorf("%s registers %s, which has no DESIGN.md inventory row", file, name)
		}
	}

	f := startFleet(t)
	for _, d := range []struct {
		d   *daemon
		url string
	}{{f.pop, f.popURL}, {f.edge, f.edgeURL}, {f.rs, f.rsURL}, {f.pd, f.pdURL}} {
		scrapeMetrics(t, d.d, d.url) // wait until serving
		families := scrapeFamilies(t, d.url)
		if len(families) == 0 {
			t.Errorf("%s exposes no metrics", d.d.name)
		}
		for _, name := range families {
			if _, ok := rows[name]; !ok {
				t.Errorf("%s exposes %s, which has no DESIGN.md inventory row", d.d.name, name)
			}
		}
	}
}
