package report

import (
	"strings"
	"testing"
)

func TestTableAlignment(t *testing.T) {
	tb := New("name", "value").RightAlign(1)
	if err := tb.AddRow("alpha", "1.5"); err != nil {
		t.Fatal(err)
	}
	tb.MustAddRow("beta-long-name", "22.75")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("want 4 lines, got %d: %q", len(lines), out)
	}
	// Right-aligned numeric column: values end at the same offset.
	if !strings.HasSuffix(lines[2], "  1.5") {
		t.Errorf("row 1 = %q", lines[2])
	}
	if !strings.HasSuffix(lines[3], "22.75") {
		t.Errorf("row 2 = %q", lines[3])
	}
	if len(lines[2]) != len(lines[3]) {
		t.Errorf("aligned rows should have equal width: %q vs %q", lines[2], lines[3])
	}
	if len(tb.rows) != 2 {
		t.Errorf("NumRows = %d", len(tb.rows))
	}
}

func TestAddRowArity(t *testing.T) {
	tb := New("a", "b")
	if err := tb.AddRow("only-one"); err == nil {
		t.Error("arity mismatch should fail")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustAddRow should panic on arity mismatch")
		}
	}()
	tb.MustAddRow("x", "y", "z")
}

func TestFormatters(t *testing.T) {
	if Float(3.14159, 2) != "3.14" {
		t.Errorf("Float = %q", Float(3.14159, 2))
	}
	if Percent(0.925, 1) != "92.5 %" {
		t.Errorf("Percent = %q", Percent(0.925, 1))
	}
}

func TestComparison(t *testing.T) {
	c := NewComparison()
	c.Add("Table III lifetime", "2.59 d", "2.59 d", true)
	c.Add("median δ", "10.1 s", "3.3 s", true)
	if !c.AllOK() {
		t.Error("all OK expected")
	}
	c.Add("something", "1", "99", false)
	if c.AllOK() {
		t.Error("deviation should flip AllOK")
	}
	var b strings.Builder
	if err := c.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "DEVIATES") || !strings.Contains(out, "OK") {
		t.Errorf("comparison output missing verdicts: %q", out)
	}
}

func TestUnicodeWidths(t *testing.T) {
	tb := New("metric", "v").RightAlign(1)
	tb.MustAddRow("δ_norm", "0.99")
	tb.MustAddRow("xx", "1")
	lines := strings.Split(strings.TrimRight(tb.String(), "\n"), "\n")
	// Both data rows must render to the same rune width.
	if w1, w2 := len([]rune(lines[2])), len([]rune(lines[3])); w1 != w2 {
		t.Errorf("unicode alignment broken: %d vs %d (%q, %q)", w1, w2, lines[2], lines[3])
	}
}
