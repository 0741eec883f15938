package simulate

import (
	"testing"
)

// TestSDCModel checks the structural invariants of the
// silent-data-corruption sweep: verification must strictly shrink the
// silent-failure probability, its cost must stay bounded and above the
// always-on checksum floor, and the machine-wide strike rate must grow
// with the node count.
func TestSDCModel(t *testing.T) {
	pc := testCache
	rows, err := RunSDC(pc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 4 {
		t.Fatalf("sweep too small: %d rows", len(rows))
	}
	for i, r := range rows {
		if r.ExpEvents <= 0 || r.BaseSec <= 0 {
			t.Fatalf("row %d: degenerate model: %+v", i, r)
		}
		if r.PWrongBare <= 0 || r.PWrongBare >= 1 || r.PWrongVerif <= 0 || r.PWrongVerif >= 1 {
			t.Fatalf("row %d: probabilities out of range: %+v", i, r)
		}
		if r.PWrongVerif >= r.PWrongBare {
			t.Fatalf("row %d: verification did not reduce silent-failure risk: %+v", i, r)
		}
		// Coverage 0.995 should buy at least two orders of magnitude.
		if r.PWrongVerif > r.PWrongBare/50 {
			t.Fatalf("row %d: risk reduction too small: bare %g verified %g", i, r.PWrongBare, r.PWrongVerif)
		}
		if r.VerifiedOv < sdcChecksumOverhead {
			t.Fatalf("row %d: verified overhead %g below the checksum floor %g", i, r.VerifiedOv, sdcChecksumOverhead)
		}
		if r.VerifiedOv > 0.10 {
			t.Fatalf("row %d: verified overhead %g implausibly large", i, r.VerifiedOv)
		}
		if i > 0 && rows[i].EventsPerHour <= rows[i-1].EventsPerHour {
			t.Fatalf("strike rate not increasing with nodes: %+v then %+v", rows[i-1], rows[i])
		}
	}
}
