// Package figures contains one runner per table/figure in the paper's
// evaluation (§5, appendices). Each runner builds on the shared
// experiments.Env (topology + deployment + world + UGs + measurement
// system) and returns a printable result whose rows/series mirror what
// the paper reports. cmd/painter-bench and the top-level benchmarks
// drive these; no production package imports this one.
package figures

import (
	"fmt"
	"strings"
)

// standardBudgetFracs is the x-axis of Fig. 6a/6b/9b/14.
var standardBudgetFracs = []float64{0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0}

// Table is a simple printable result: a header plus rows.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// String renders the table with aligned columns.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

// num formats a float compactly.
func num(v float64) string { return fmt.Sprintf("%.2f", v) }

// pct formats a fraction as a percentage.
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
