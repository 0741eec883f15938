package simulate

// Silent-data-corruption model: the risk/overhead trade of the integrity
// layer (internal/integrity + the verified mpi transport + the scf
// validators) at the Figure 7 scale. Soft errors that slip past ECC —
// bit flips in live floating-point state, in-flight message payloads, or
// checkpoint bytes — arrive as a Poisson process with a per-node rate;
// without end-to-end verification each strike that lands in live SCF
// state silently biases the converged energy, and nothing in the run
// reports it. The verified configuration converts those silent events
// into detected ones: transport checksums catch in-flight flips (and a
// retransmit repairs them for free), the matrix validators catch
// compute-state strikes and pay one Fock rebuild, and the checkpoint CRC
// catches at-rest flips. The model prices both configurations:
//
//	unprotected:  E[T] = T0, but P(wrong answer) grows with n·T0;
//	verified:     E[T] = T0·(1+c) + E[validator catches]·T_iter,
//	              P(wrong) suppressed by the residual miss fraction.
//
// The per-node rate is the model's least certain input: field studies
// put post-ECC silent-corruption rates anywhere from tens to tens of
// thousands of FIT per node depending on altitude, voltage margin, and
// silicon generation. The default sits at the aggressive end so the
// sweep exercises the regime the protection layer exists for.

import "math"

// SDC model constants.
const (
	// sdcFITPerNode is the assumed post-ECC silent-corruption rate per
	// node in FIT (events per 1e9 device-hours).
	sdcFITPerNode = 5e4
	// sdcCriticalFrac is the fraction of strikes that land in live SCF
	// state (density/Fock/message/checkpoint bytes) rather than dead
	// memory, and so can corrupt the answer.
	sdcCriticalFrac = 0.3
	// sdcCoverage is the detection coverage of the integrity layer over
	// critical strikes: transport checksums are exhaustive for single-bit
	// flips, the validators catch non-finite/asymmetric/trace-violating
	// matrices, the CRC covers checkpoints; the residue is flips that
	// mimic valid state (e.g. a low-order mantissa bit in a converged
	// density).
	sdcCoverage = 0.995
	// sdcChecksumOverhead is the fractional run-time cost of always-on
	// verification (Fletcher-64 framing on every payload plus the
	// per-iteration matrix validations) — bounded by the repository's
	// transport benchmark at well under 5%.
	sdcChecksumOverhead = 0.02
	// sdcValidatorFrac is the fraction of detected critical strikes
	// caught by the matrix validators (the rest are transport/checkpoint
	// catches whose repair — a retransmit or a guess restart — is cheap);
	// each validator catch pays one quarantined Fock rebuild.
	sdcValidatorFrac = 0.4
)

// SDCRow is one node count of the silent-data-corruption sweep.
type SDCRow struct {
	Nodes         int
	EventsPerHour float64 // critical-strike rate of the whole machine, 1/h
	ExpEvents     float64 // expected critical strikes during the run
	PWrongBare    float64 // P(silently wrong answer), no integrity layer
	PWrongVerif   float64 // P(silently wrong answer), verified run
	BaseSec       float64 // failure-free time-to-solution
	RecomputeSec  float64 // expected quarantine-rebuild time paid by the verified run
	VerifiedSec   float64 // expected verified time-to-solution
	VerifiedOv    float64 // VerifiedSec/BaseSec - 1
}

// RunSDC sweeps the Figure 7 configuration (5.0 nm, shared-Fock, 512 to
// 3,000 Theta nodes) under the SDC model, pricing the silent-failure
// probability without the integrity layer against the run-time overhead
// with it. The per-iteration build time is Figure 7's own simulator run
// (ProfileCache.fig7Sweep), so the artifacts stay consistent.
func RunSDC(pc *ProfileCache) ([]SDCRow, error) {
	sweep, err := pc.fig7Sweep()
	if err != nil {
		return nil, err
	}
	rows := make([]SDCRow, 0, len(fig7Nodes))
	for i, nodes := range fig7Nodes {
		iterSec := sweep[i].FockSec
		base := resilienceIters * iterSec

		// Critical-strike rate: FIT -> events/s/node, times the machine,
		// times the live-state fraction.
		perNodePerSec := sdcFITPerNode / 1e9 / 3600
		lambda := float64(nodes) * perNodePerSec * sdcCriticalFrac
		expEvents := lambda * base

		// Unprotected: every critical strike silently corrupts the run.
		pBare := 1 - math.Exp(-expEvents)
		// Verified: only the undetected residue stays silent.
		pVerif := 1 - math.Exp(-(1-sdcCoverage)*expEvents)

		// Verified cost: always-on checksum/validator overhead plus one
		// Fock rebuild per validator-caught strike.
		recompute := sdcCoverage * sdcValidatorFrac * expEvents * iterSec
		verified := base*(1+sdcChecksumOverhead) + recompute

		rows = append(rows, SDCRow{
			Nodes:         nodes,
			EventsPerHour: lambda * 3600,
			ExpEvents:     expEvents,
			PWrongBare:    pBare,
			PWrongVerif:   pVerif,
			BaseSec:       base,
			RecomputeSec:  recompute,
			VerifiedSec:   verified,
			VerifiedOv:    verified/base - 1,
		})
	}
	return rows, nil
}
