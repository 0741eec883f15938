package scf

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"strings"

	"repro/internal/linalg"
)

// Checkpointing: persist a converged SCF state and warm-start later runs
// from it — the role GAMESS's PUNCH/restart files play. A production SCF
// on thousands of nodes checkpoints between jobs; here the same mechanism
// also accelerates repeated runs on perturbed geometries.
//
// Format (version 1): an ASCII header line "HFCKPT v1 len=N", N bytes of
// JSON body, and a trailer line "crc32=XXXXXXXX" carrying the IEEE
// CRC-32 of the body. The header length makes truncation detectable
// before parsing; the CRC catches any bit-flip in the body (a checkpoint
// sits on disk through exactly the window a node is most likely to fail
// in, so it is the SDC target with the longest exposure).

// Checkpoint is the serialized SCF state.
type Checkpoint struct {
	Molecule        string    `json:"molecule"`
	Basis           string    `json:"basis"`
	NumBF           int       `json:"num_bf"`
	Energy          float64   `json:"energy"`
	Converged       bool      `json:"converged"`
	Iterations      int       `json:"iterations"`
	OrbitalEnergies []float64 `json:"orbital_energies"`
	Density         []float64 `json:"density"` // total density, row-major NumBF x NumBF
	// AlphaDensity is the alpha-spin density of an unrestricted run (beta
	// is Density - AlphaDensity); absent for a restricted one.
	AlphaDensity []float64 `json:"alpha_density,omitempty"`
}

// checkpointMagic opens every framed (version >= 1) checkpoint.
const checkpointMagic = "HFCKPT"

// EncodeCheckpoint serializes the result's restartable state in the
// current (version 1) framed format and returns the complete file bytes.
// Drivers that inject or audit corruption work on these bytes directly.
func EncodeCheckpoint(molName, basisName string, res *Result) ([]byte, error) {
	if res.D == nil {
		return nil, fmt.Errorf("scf: result has no density to checkpoint")
	}
	cp := Checkpoint{
		Molecule:        molName,
		Basis:           basisName,
		NumBF:           res.D.Rows,
		Energy:          res.Energy,
		Converged:       res.Converged,
		Iterations:      res.Iterations,
		OrbitalEnergies: res.OrbitalEnergies,
		Density:         res.D.Data,
	}
	if res.Spin != nil {
		cp.AlphaDensity = res.Spin.DAlpha.Data
	}
	body, err := json.Marshal(&cp)
	if err != nil {
		return nil, fmt.Errorf("scf: encoding checkpoint: %w", err)
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s v1 len=%d\n", checkpointMagic, len(body))
	b.Write(body)
	fmt.Fprintf(&b, "\ncrc32=%08x\n", crc32.ChecksumIEEE(body))
	return b.Bytes(), nil
}

// maxCheckpointBF bounds the basis size a checkpoint may claim; beyond it
// the file is certainly corrupt (the density alone would exceed 100 GB).
const maxCheckpointBF = 1 << 17

// LoadCheckpoint reads and validates a checkpoint written by
// EncodeCheckpoint. A truncated, bit-flipped, or inconsistent file yields
// a descriptive error — never a panic — so drivers can fall back to a
// standard initial guess.
func LoadCheckpoint(r io.Reader) (*Checkpoint, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("scf: reading checkpoint: %w", err)
	}
	body, err := verifyCheckpointFrame(raw)
	if err != nil {
		return nil, err
	}
	var cp Checkpoint
	if err := json.Unmarshal(body, &cp); err != nil {
		return nil, fmt.Errorf("scf: checkpoint truncated or corrupted: %w", err)
	}
	if cp.NumBF <= 0 || cp.NumBF > maxCheckpointBF {
		return nil, fmt.Errorf("scf: checkpoint claims %d basis functions (want 1..%d)",
			cp.NumBF, maxCheckpointBF)
	}
	if len(cp.Density) != cp.NumBF*cp.NumBF {
		return nil, fmt.Errorf("scf: checkpoint density has %d elements for %d basis functions (want %d)",
			len(cp.Density), cp.NumBF, cp.NumBF*cp.NumBF)
	}
	if len(cp.AlphaDensity) != 0 && len(cp.AlphaDensity) != len(cp.Density) {
		return nil, fmt.Errorf("scf: checkpoint alpha density has %d elements for %d basis functions (want %d)",
			len(cp.AlphaDensity), cp.NumBF, len(cp.Density))
	}
	for _, dens := range [][]float64{cp.Density, cp.AlphaDensity} {
		for i, v := range dens {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("scf: checkpoint density element %d is not finite", i)
			}
		}
	}
	return &cp, nil
}

// verifyCheckpointFrame parses and verifies the v1 framing, returning
// the JSON body. Every failure mode is named: a garbled header, an
// unsupported (future) version, a body shorter than the header claims,
// a missing trailer, and a CRC mismatch are distinct diagnostics.
func verifyCheckpointFrame(raw []byte) ([]byte, error) {
	nl := bytes.IndexByte(raw, '\n')
	if nl < 0 {
		return nil, fmt.Errorf("scf: checkpoint truncated or corrupted: no header line")
	}
	header := string(raw[:nl])
	var version, bodyLen int
	if _, err := fmt.Sscanf(header, checkpointMagic+" v%d len=%d", &version, &bodyLen); err != nil {
		return nil, fmt.Errorf("scf: checkpoint truncated or corrupted: malformed header %q", header)
	}
	if version != 1 {
		return nil, fmt.Errorf("scf: unsupported checkpoint version %d (this build reads v1)", version)
	}
	rest := raw[nl+1:]
	if bodyLen < 0 || bodyLen > len(rest) {
		return nil, fmt.Errorf("scf: checkpoint truncated or corrupted: header claims %d body bytes, %d present", bodyLen, len(rest))
	}
	body := rest[:bodyLen]
	// The trailer is matched byte-for-byte ("\ncrc32=" + 8 lowercase hex
	// digits + "\n", nothing else): scanning it leniently would let a
	// bit flip in the framing itself (whitespace, hex case) slip by.
	trailer := string(rest[bodyLen:])
	const tprefix = "\ncrc32="
	if len(trailer) != len(tprefix)+9 || !strings.HasPrefix(trailer, tprefix) || trailer[len(trailer)-1] != '\n' {
		return nil, fmt.Errorf("scf: checkpoint CRC trailer missing or malformed (%q)", trailer)
	}
	stored := trailer[len(tprefix) : len(tprefix)+8]
	if expect := fmt.Sprintf("%08x", crc32.ChecksumIEEE(body)); stored != expect {
		return nil, fmt.Errorf("scf: checkpoint CRC mismatch: stored %s, computed %s (bit-flipped on disk?)", stored, expect)
	}
	return body, nil
}

// DensityMatrix reconstructs the checkpointed total density.
func (cp *Checkpoint) DensityMatrix() *linalg.Matrix {
	m := linalg.NewSquare(cp.NumBF)
	copy(m.Data, cp.Density)
	return m
}

// Densities reconstructs the restart state: the total density of a
// restricted run, or the alpha and beta densities of an unrestricted one.
func (cp *Checkpoint) Densities() []*linalg.Matrix {
	d := cp.DensityMatrix()
	if len(cp.AlphaDensity) == 0 {
		return []*linalg.Matrix{d}
	}
	a := linalg.NewSquare(cp.NumBF)
	copy(a.Data, cp.AlphaDensity)
	d.AxpyFrom(-1, a)
	return []*linalg.Matrix{a, d}
}
