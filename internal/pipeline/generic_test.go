package pipeline

import (
	"math"
	"testing"

	"selflearn/internal/chbmit"
	"selflearn/internal/ml/metrics"
)

func TestValidateGenericSmall(t *testing.T) {
	// Three patients keep the runtime manageable; the structural claim —
	// personalized >= generic on average — must hold even at this scale.
	var ps []chbmit.Patient
	for _, id := range []string{"chb01", "chb05", "chb09"} {
		p, err := chbmit.PatientByID(id)
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	opts := fastOptions()
	opts.Patients = ps
	res, err := ValidateGeneric(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerPatient) != 3 {
		t.Fatalf("per-patient results = %d", len(res.PerPatient))
	}
	for _, pr := range res.PerPatient {
		if pr.Personalized == (metrics.Confusion{}) || pr.Generic == (metrics.Confusion{}) {
			t.Fatalf("%s: empty confusion", pr.PatientID)
		}
	}
	if math.IsNaN(res.PersonalizedGeoMean) || math.IsNaN(res.GenericGeoMean) {
		t.Fatal("NaN geomeans")
	}
	// The paper's motivation: personalization should not lose to generic
	// training (and typically wins).
	if res.Gap() < -10 {
		t.Errorf("personalized %.3f vs generic %.3f: personalization should not be dominated",
			res.PersonalizedGeoMean, res.GenericGeoMean)
	}
	t.Logf("personalized %.2f %% vs generic %.2f %% (gap %.2f points)",
		100*res.PersonalizedGeoMean, 100*res.GenericGeoMean, res.Gap())
}

func TestValidateGenericErrors(t *testing.T) {
	p, _ := chbmit.PatientByID("chb01")
	opts := fastOptions()
	opts.Patients = []chbmit.Patient{p}
	if _, err := ValidateGeneric(opts); err == nil {
		t.Error("single patient should fail")
	}
	opts = fastOptions()
	opts.MaxTrainSeizures = 0
	if _, err := ValidateGeneric(opts); err == nil {
		t.Error("invalid options should fail")
	}
}
