package eval

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// WriteCSV emits the corpus result as CSV with one row per seizure:
// patient, ordinal, seizure index, outlier flag, mean δ, geometric-mean
// δ_norm, and every per-sample δ in a trailing column list — the format
// downstream plotting scripts consume to regenerate Table II / Fig. 4
// style figures.
func WriteCSV(w io.Writer, res *CorpusResult) error {
	if res == nil {
		return fmt.Errorf("eval: nil result")
	}
	cw := csv.NewWriter(w)
	header := []string{"patient", "ordinal", "seizure", "outlier", "mean_delta_s", "geo_delta_norm", "sample_deltas_s"}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, p := range res.Patients {
		for _, s := range p.Seizures {
			samples := ""
			for i, d := range s.Deltas {
				if i > 0 {
					samples += ";"
				}
				samples += strconv.FormatFloat(d, 'f', 3, 64)
			}
			row := []string{
				s.PatientID,
				strconv.Itoa(s.Ordinal),
				strconv.Itoa(s.Index),
				strconv.FormatBool(s.Outlier),
				strconv.FormatFloat(s.MeanDelta, 'f', 3, 64),
				strconv.FormatFloat(s.GeoDeltaNorm, 'f', 6, 64),
				samples,
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
