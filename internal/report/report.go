// Package report renders aligned text tables for the reproduction
// binaries: fixed-width columns, right-aligned numerics, and a
// paper-vs-measured comparison layout shared by cmd/reproduce.
package report

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Table is a simple column-aligned text table.
type Table struct {
	headers []string
	rows    [][]string
	// rightAlign[i] marks column i as right-aligned (numeric).
	rightAlign []bool
}

// New creates a table with the given column headers.
func New(headers ...string) *Table {
	return &Table{headers: headers, rightAlign: make([]bool, len(headers))}
}

// RightAlign marks the given column indices as right-aligned.
func (t *Table) RightAlign(cols ...int) *Table {
	for _, c := range cols {
		if c >= 0 && c < len(t.rightAlign) {
			t.rightAlign[c] = true
		}
	}
	return t
}

// AddRow appends a row; the cell count must match the header count.
func (t *Table) AddRow(cells ...string) error {
	if len(cells) != len(t.headers) {
		return fmt.Errorf("report: row has %d cells, table has %d columns", len(cells), len(t.headers))
	}
	t.rows = append(t.rows, cells)
	return nil
}

// MustAddRow appends a row and panics on arity mismatch; for literal
// rows in command code.
func (t *Table) MustAddRow(cells ...string) {
	if err := t.AddRow(cells...); err != nil {
		panic(err)
	}
}

// Render writes the aligned table to w.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = utf8.RuneCountInString(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if n := utf8.RuneCountInString(c); n > widths[i] {
				widths[i] = n
			}
		}
	}
	line := func(cells []string) string {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			pad := widths[i] - utf8.RuneCountInString(c)
			if t.rightAlign[i] {
				b.WriteString(strings.Repeat(" ", pad))
				b.WriteString(c)
			} else {
				b.WriteString(c)
				if i != len(cells)-1 {
					b.WriteString(strings.Repeat(" ", pad))
				}
			}
		}
		return strings.TrimRight(b.String(), " ")
	}
	if _, err := fmt.Fprintln(w, line(t.headers)); err != nil {
		return err
	}
	total := 0
	for i, wd := range widths {
		if i > 0 {
			total += 2
		}
		total += wd
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", total)); err != nil {
		return err
	}
	for _, row := range t.rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	return nil
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	_ = t.Render(&b)
	return b.String()
}

// Float formats a float with the given precision, trimming to a compact
// cell value.
func Float(v float64, prec int) string {
	return strconv.FormatFloat(v, 'f', prec, 64)
}

// Percent formats a fraction as a percentage cell.
func Percent(v float64, prec int) string {
	return strconv.FormatFloat(100*v, 'f', prec, 64) + " %"
}

// Comparison builds the paper-vs-measured verdict table used by
// cmd/reproduce.
type Comparison struct {
	t *Table
}

// NewComparison creates an empty comparison table.
func NewComparison() *Comparison {
	return &Comparison{t: New("experiment", "paper", "measured", "verdict").RightAlign(1, 2)}
}

// Add appends one experiment line. ok selects the verdict marker.
func (c *Comparison) Add(name, paper, measured string, ok bool) {
	verdict := "OK"
	if !ok {
		verdict = "DEVIATES"
	}
	c.t.MustAddRow(name, paper, measured, verdict)
}

// Render writes the comparison to w.
func (c *Comparison) Render(w io.Writer) error { return c.t.Render(w) }

// AllOK reports whether every added line carried an OK verdict.
func (c *Comparison) AllOK() bool {
	for _, row := range c.t.rows {
		if row[3] != "OK" {
			return false
		}
	}
	return true
}
