package features

import (
	"math"
	"testing"

	"selflearn/internal/chbmit"
	"selflearn/internal/signal"
	"selflearn/internal/stats"
	"selflearn/internal/synth"
)

func seizureRecording(t *testing.T) *signal.Recording {
	t.Helper()
	rec, err := synth.Generate(synth.RecordConfig{
		PatientID:  "chb01",
		RecordID:   "r1",
		Seed:       5,
		Duration:   300,
		Background: synth.DefaultBackground(),
		Seizures: []synth.SeizureEvent{
			{Start: 120, Duration: 60, Config: synth.DefaultSeizure()},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.Level = 0
	if bad.Validate() == nil {
		t.Error("level 0 should fail")
	}
	bad = DefaultConfig()
	bad.RenyiAlpha = -1
	if bad.Validate() == nil {
		t.Error("negative alpha should fail")
	}
	bad = DefaultConfig()
	bad.RenyiBins = 0
	if bad.Validate() == nil {
		t.Error("zero bins should fail")
	}
	bad = DefaultConfig()
	bad.SampleM = 0
	if bad.Validate() == nil {
		t.Error("zero m should fail")
	}
	bad = DefaultConfig()
	bad.Window.Overlap = 1.5
	if bad.Validate() == nil {
		t.Error("bad window should fail")
	}
}

func TestExtract10Shape(t *testing.T) {
	rec := seizureRecording(t)
	m, err := Extract10(rec, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if m.NumFeatures() != 10 {
		t.Fatalf("features = %d, want 10", m.NumFeatures())
	}
	// 300 s at 1 s hop with 4 s windows: 297 rows.
	if m.NumRows() != 297 {
		t.Errorf("rows = %d, want 297", m.NumRows())
	}
	if len(m.Names) != 10 || m.Names[0] != "F7T3/theta_power" {
		t.Errorf("names = %v", m.Names)
	}
	if m.TimeOf(10) != 10 {
		t.Errorf("TimeOf(10) = %g, want 10 s", m.TimeOf(10))
	}
	for i, row := range m.Rows {
		for f, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("row %d feature %d (%s) is %g", i, f, m.Names[f], v)
			}
		}
	}
}

func TestExtract10SeparatesSeizure(t *testing.T) {
	rec := seizureRecording(t)
	m, err := Extract10(rec, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Mean theta power inside the seizure (rows 130..170) must exceed the
	// background mean (rows 0..100) by a large factor.
	thetaIn := colMeanRange(m, 0, 130, 170)
	thetaOut := colMeanRange(m, 0, 0, 100)
	if thetaIn < 5*thetaOut {
		t.Errorf("ictal theta power %g vs background %g: separation too weak", thetaIn, thetaOut)
	}
	relIn := colMeanRange(m, 3, 130, 170)
	relOut := colMeanRange(m, 3, 0, 100)
	if relIn <= relOut {
		t.Error("relative theta on F8T4 should rise during seizure")
	}
}

func colMeanRange(m *Matrix, col, lo, hi int) float64 {
	var s float64
	for i := lo; i < hi; i++ {
		s += m.Rows[i][col]
	}
	return s / float64(hi-lo)
}

func TestExtract10Errors(t *testing.T) {
	rec := seizureRecording(t)
	bad := *rec
	bad.Channels = []string{"X", "Y"}
	if _, err := Extract10(&bad, DefaultConfig()); err == nil {
		t.Error("missing electrode pairs should fail")
	}
	short, err := rec.Slice(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Extract10(short, DefaultConfig()); err == nil {
		t.Error("recording shorter than a window should fail")
	}
	cfg := DefaultConfig()
	cfg.Level = 0
	if _, err := Extract10(rec, cfg); err == nil {
		t.Error("invalid config should fail")
	}
	cfg = DefaultConfig()
	cfg.Level = 12 // 1024-sample window cannot reach level 12
	if _, err := Extract10(rec, cfg); err == nil {
		t.Error("excessive level should fail")
	}
}

func TestEGlassFeatureNames54(t *testing.T) {
	names := EGlassFeatureNames()
	if len(names) != 54 {
		t.Fatalf("bank has %d features, want 54 (per electrode pair, as in [7])", len(names))
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Errorf("duplicate feature name %q", n)
		}
		seen[n] = true
	}
}

func TestExtract54Shape(t *testing.T) {
	rec := seizureRecording(t)
	sub, err := rec.Slice(100, 200)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Extract54(sub, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if m.NumFeatures() != 108 {
		t.Fatalf("features = %d, want 108 (54 per electrode pair)", m.NumFeatures())
	}
	if m.NumRows() != 97 {
		t.Errorf("rows = %d, want 97", m.NumRows())
	}
	for i, row := range m.Rows {
		if len(row) != 108 {
			t.Fatalf("row %d has %d values", i, len(row))
		}
		for f, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("row %d feature %s = %g", i, m.Names[f], v)
			}
		}
	}
	if m.Names[0] != "F7T3/mean" || m.Names[54] != "F8T4/mean" {
		t.Errorf("channel prefixes wrong: %q %q", m.Names[0], m.Names[54])
	}
}

func TestExtract54SeizureSeparation(t *testing.T) {
	rec := seizureRecording(t)
	m, err := Extract54(rec, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// line length (col 8) should be elevated during seizure.
	llIn := colMeanRange(m, 8, 130, 170)
	llOut := colMeanRange(m, 8, 0, 100)
	if llIn <= llOut {
		t.Errorf("ictal line length %g should exceed background %g", llIn, llOut)
	}
}

func TestColumnAndSelect(t *testing.T) {
	rec := seizureRecording(t)
	sub, _ := rec.Slice(0, 60)
	m, err := Extract10(sub, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sel, err := m.Select([]int{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if sel.NumFeatures() != 2 || sel.Names[0] != m.Names[2] {
		t.Error("Select mis-ordered")
	}
	for i := range sel.Rows {
		if sel.Rows[i][0] != m.Rows[i][2] || sel.Rows[i][1] != m.Rows[i][0] {
			t.Fatal("Select copied wrong values")
		}
	}
	if _, err := m.Select([]int{99}); err == nil {
		t.Error("out-of-range select should fail")
	}
}

func TestSliceRows(t *testing.T) {
	rec := seizureRecording(t)
	sub, _ := rec.Slice(0, 60)
	m, err := Extract10(sub, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.SliceRows(5, 20)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumRows() != 15 {
		t.Errorf("rows = %d", s.NumRows())
	}
	if &s.Rows[0][0] != &m.Rows[5][0] {
		t.Error("SliceRows should share backing rows")
	}
	if _, err := m.SliceRows(-1, 5); err == nil {
		t.Error("negative lo should fail")
	}
	if _, err := m.SliceRows(5, 5); err == nil {
		t.Error("empty slice should fail")
	}
	if _, err := m.SliceRows(0, 1000); err == nil {
		t.Error("hi beyond rows should fail")
	}
}

func TestLabels(t *testing.T) {
	rec := seizureRecording(t)
	m, err := Extract10(rec, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	labels := Labels(m, rec.Seizures)
	if len(labels) != m.NumRows() {
		t.Fatal("label length mismatch")
	}
	// Seizure spans [120, 180): window starting at 140 is fully inside.
	if !labels[140] {
		t.Error("window 140 should be labeled seizure")
	}
	if labels[50] || labels[250] {
		t.Error("background windows should not be labeled seizure")
	}
	// Boundary: window starting 118 overlaps [120,122) = 2 s of 4 s -> labeled.
	if !labels[118] {
		t.Error("half-overlapping window should be labeled seizure")
	}
	if labels[115] {
		t.Error("window with 1 s overlap should not be labeled")
	}
	count := 0
	for _, l := range labels {
		if l {
			count++
		}
	}
	if count < 55 || count > 62 {
		t.Errorf("%d seizure windows for a 60 s seizure, want ≈58", count)
	}
}

func TestExtractionOnCatalogRecord(t *testing.T) {
	// End-to-end sanity: the chb02 outlier record extracts cleanly and the
	// artifact region carries extreme feature values.
	p, err := chbmit.PatientByID("chb02")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := p.SeizureRecord(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	sz := rec.Seizures[0]
	lo := math.Max(0, sz.Start-900)
	hi := math.Min(rec.Duration(), sz.End+300)
	sub, err := rec.Slice(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Extract10(sub, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if m.NumRows() < 1000 {
		t.Errorf("rows = %d", m.NumRows())
	}
	// Delta power column should have strong positive outliers relative to
	// its median somewhere (seizure or artifact).
	col := make([]float64, m.NumRows())
	for i, row := range m.Rows {
		col[i] = row[2]
	}
	med := stats.Median(col)
	if stats.Max(col) < 10*math.Max(med, 1e-12) {
		t.Error("expected extreme delta-power excursions in an outlier record")
	}
}
