package scf

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/linalg"
)

// FuzzLoadCheckpoint drives the checkpoint decoder, the one reader of
// outside bytes in the SCF driver, with arbitrary files. It must never
// panic; anything it accepts must be a usable restart state (1 <= NumBF
// <= maxCheckpointBF, an NumBF² density, finite values only); and the
// same bytes, read as a finite density, must survive EncodeCheckpoint ->
// LoadCheckpoint bit for bit. The seed corpus under testdata/fuzz/ holds
// a valid v1 file, a truncated one, a CRC flip, a huge len= and a NaN
// element.
func FuzzLoadCheckpoint(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		if cp, err := LoadCheckpoint(bytes.NewReader(raw)); err == nil {
			if cp.NumBF < 1 || cp.NumBF > maxCheckpointBF {
				t.Fatalf("accepted NumBF %d", cp.NumBF)
			}
			if len(cp.Density) != cp.NumBF*cp.NumBF {
				t.Fatalf("accepted %d density elements for %d basis functions", len(cp.Density), cp.NumBF)
			}
			for _, dens := range [][]float64{cp.Density, cp.AlphaDensity} {
				for i, v := range dens {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatalf("accepted non-finite density element %d = %v", i, v)
					}
				}
			}
		}

		n := int(math.Sqrt(float64(len(raw) / 8)))
		if n == 0 {
			return
		}
		d := linalg.NewSquare(n)
		for i := range d.Data {
			v := math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			d.Data[i] = v
		}
		file, err := EncodeCheckpoint("fuzz", "sto-3g", &Result{D: d})
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		cp, err := LoadCheckpoint(bytes.NewReader(file))
		if err != nil {
			t.Fatalf("round trip of a %dx%d finite density rejected: %v", n, n, err)
		}
		if cp.NumBF != n || len(cp.Density) != n*n {
			t.Fatalf("round trip gave NumBF %d with %d elements, want %d", cp.NumBF, len(cp.Density), n)
		}
		for i, v := range cp.Density {
			if math.Float64bits(v) != math.Float64bits(d.Data[i]) {
				t.Fatalf("element %d: %v (%#x) came back as %v (%#x)",
					i, d.Data[i], math.Float64bits(d.Data[i]), v, math.Float64bits(v))
			}
		}
	})
}
