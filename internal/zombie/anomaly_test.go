package zombie

import (
	"reflect"
	"testing"
)

// TestAnomalyDetectorTable pins what callers and the zombiehunt -detect flag
// see of the detector table: the sorted names, that each name builds the
// detector reporting it, and the unknown-name error text.
func TestAnomalyDetectorTable(t *testing.T) {
	want := []string{"community", "hyperspecific", "moas", "zombie"}
	if got := AnomalyDetectorNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("AnomalyDetectorNames() = %v, want %v", got, want)
	}
	dets, err := BuildAnomalyDetectors(nil, AnomalyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range dets {
		if d.Name() != want[i] {
			t.Errorf("detector %d is %q, want %q", i, d.Name(), want[i])
		}
	}
	dets, err = BuildAnomalyDetectors([]string{"zombie", "moas"}, AnomalyConfig{})
	if err != nil || len(dets) != 2 || dets[0].Name() != "zombie" || dets[1].Name() != "moas" {
		t.Fatalf("BuildAnomalyDetectors(zombie, moas) = %v, %v: want both, in the order asked", dets, err)
	}
	_, err = BuildAnomalyDetectors([]string{"moas", "bogus"}, AnomalyConfig{})
	const wantErr = `zombie: unknown anomaly detector "bogus" (have [community hyperspecific moas zombie])`
	if err == nil || err.Error() != wantErr {
		t.Fatalf("unknown name: error %v, want %q", err, wantErr)
	}
}
