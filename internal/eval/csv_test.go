package eval

import (
	"bytes"
	"encoding/csv"
	"slices"
	"strings"
	"testing"
)

func sampleResult() *CorpusResult {
	return &CorpusResult{
		Patients: []PatientResult{
			{
				PatientID: "chb01", Ordinal: 1,
				Seizures: []SeizureResult{
					{PatientID: "chb01", Ordinal: 1, Index: 1, MeanDelta: 4.25, GeoDeltaNorm: 0.998, Deltas: []float64{4, 4.5}},
					{PatientID: "chb01", Ordinal: 1, Index: 2, Outlier: true, MeanDelta: 432.5, GeoDeltaNorm: 0.75, Deltas: []float64{432.5}},
				},
			},
		},
	}
}

func TestCSVRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, sampleResult()); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("want a header and 2 rows, got %d rows", len(rows))
	}
	want := [][]string{
		{"chb01", "1", "1", "false", "4.250", "0.998000", "4.000;4.500"},
		{"chb01", "1", "2", "true", "432.500", "0.750000", "432.500"},
	}
	for i, w := range want {
		if !slices.Equal(rows[i+1], w) {
			t.Errorf("row %d = %q, want %q", i, rows[i+1], w)
		}
	}
}

func TestWriteCSVNil(t *testing.T) {
	if err := WriteCSV(&bytes.Buffer{}, nil); err == nil {
		t.Error("nil result should fail")
	}
}

func TestCSVHeaderStable(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, sampleResult()); err != nil {
		t.Fatal(err)
	}
	first := strings.SplitN(buf.String(), "\n", 2)[0]
	want := "patient,ordinal,seizure,outlier,mean_delta_s,geo_delta_norm,sample_deltas_s"
	if first != want {
		t.Errorf("header = %q", first)
	}
}
