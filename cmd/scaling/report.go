package main

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// gates is the one verdict recorder of every experiment: it prints each
// gate's PASS/FAIL line and owns the process exit status, so a miss
// never keeps the gates after it from being evaluated and reported.
type gates struct {
	out            io.Writer
	passed, failed int
}

// check records one gate — what it requires, whether it held, and the
// measured detail — and returns pass.
func (g *gates) check(name string, pass bool, detail string) bool {
	verdict := "PASS"
	if pass {
		g.passed++
	} else {
		verdict = "FAIL"
		g.failed++
	}
	fmt.Fprintf(g.out, "  %-38s %-42s %s\n", name, detail, verdict)
	return pass
}

// exitStatus is the process exit code: 1 once any gate has failed.
func (g *gates) exitStatus() int {
	if g.failed > 0 {
		return 1
	}
	return 0
}

// table is one result set rendered two ways — aligned text for the
// terminal, CSV for -csv — so the two cannot disagree on columns.
type table struct {
	cols []string
	rows [][]string
}

func newTable(cols ...string) *table { return &table{cols: cols} }

// row appends one row. Cells are rendered with fmt.Sprint, so callers
// pre-format floats (f2, e3, ms) to the precision the CSV should carry.
func (t *table) row(cells ...any) {
	r := make([]string, len(cells))
	for i, c := range cells {
		r[i] = fmt.Sprint(c)
	}
	t.rows = append(t.rows, r)
}

func (t *table) csv() string {
	var b strings.Builder
	for _, r := range append([][]string{t.cols}, t.rows...) {
		b.WriteString(strings.Join(r, ",") + "\n")
	}
	return b.String()
}

// text renders aligned columns. A table too wide for a terminal line
// (more than 8 columns) is transposed: one line per column, one value
// per row.
func (t *table) text() string {
	grid := append([][]string{t.cols}, t.rows...)
	if len(t.cols) > 8 {
		flipped := make([][]string, len(t.cols))
		for c := range t.cols {
			for _, r := range grid {
				flipped[c] = append(flipped[c], r[c])
			}
		}
		grid = flipped
	}
	widths := make([]int, len(grid[0]))
	for _, r := range grid {
		for c, cell := range r {
			widths[c] = max(widths[c], len(cell))
		}
	}
	var b strings.Builder
	for _, r := range grid {
		line := fmt.Sprintf("  %-*s", widths[0], r[0])
		for c, cell := range r[1:] {
			line += fmt.Sprintf("  %*s", widths[c+1], cell)
		}
		b.WriteString(strings.TrimRight(line, " ") + "\n")
	}
	return b.String()
}

// errDetail is the detail of a gate that only requires a step not to fail.
func errDetail(err error) string {
	if err == nil {
		return "ok"
	}
	return err.Error()
}

// fx renders x with prec decimals.
func fx(prec int, x float64) string { return strconv.FormatFloat(x, 'f', prec, 64) }
func f2(x float64) string           { return fx(2, x) }
func e3(x float64) string           { return fmt.Sprintf("%.3e", x) }

// ms renders a duration as milliseconds with two decimals.
func ms(d time.Duration) string { return f2(float64(d) / float64(time.Millisecond)) }
