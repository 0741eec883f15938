package basis

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Gaussian94 (.gbs) basis set format support — the format the EMSL Basis
// Set Exchange serves — so downstream users can run with any basis, not
// just the built-in tables:
//
//	****
//	H     0
//	S   3   1.00
//	      3.42525091             0.15432897
//	      0.62391373             0.53532814
//	      0.16885540             0.44463454
//	****
//
// Supported shell type letters: S, P, D, F, and the fused SP (L) shell
// with two coefficient columns.

// ParseGBS parses a Gaussian94 basis set text into per-element shell
// definitions.
func ParseGBS(text string) (map[string][]shellSpec, error) {
	out := map[string][]shellSpec{}
	lines := strings.Split(text, "\n")
	i := 0
	next := func() (string, bool) {
		for i < len(lines) {
			ln := strings.TrimSpace(lines[i])
			i++
			if ln == "" || strings.HasPrefix(ln, "!") {
				continue
			}
			return ln, true
		}
		return "", false
	}
	// Skip leading separators.
	for {
		ln, ok := next()
		if !ok {
			return out, nil
		}
		if ln == "****" {
			continue
		}
		// Element header: "C 0".
		fields := strings.Fields(ln)
		if len(fields) < 1 {
			return nil, fmt.Errorf("basis: bad element header %q", ln)
		}
		element := fields[0]
		var specs []shellSpec
		for {
			ln, ok := next()
			if !ok {
				return nil, fmt.Errorf("basis: unexpected end of input inside element %s", element)
			}
			if ln == "****" {
				break
			}
			sf := strings.Fields(ln)
			if len(sf) < 2 {
				return nil, fmt.Errorf("basis: bad shell header %q", ln)
			}
			shellType := strings.ToUpper(sf[0])
			nPrim, err := strconv.Atoi(sf[1])
			if err != nil || nPrim < 1 {
				return nil, fmt.Errorf("basis: bad primitive count in %q", ln)
			}
			var moments []int
			switch shellType {
			case "S":
				moments = []int{S}
			case "P":
				moments = []int{P}
			case "D":
				moments = []int{D}
			case "F":
				moments = []int{F}
			case "SP", "L":
				moments = []int{S, P}
			default:
				return nil, fmt.Errorf("basis: unsupported shell type %q", shellType)
			}
			spec := shellSpec{moments: moments}
			spec.coefs = make([][]float64, len(moments))
			for p := 0; p < nPrim; p++ {
				ln, ok := next()
				if !ok {
					return nil, fmt.Errorf("basis: truncated primitive list for %s/%s", element, shellType)
				}
				// Fortran D exponents appear in some exports.
				ln = strings.ReplaceAll(strings.ReplaceAll(ln, "D+", "E+"), "D-", "E-")
				pf := strings.Fields(ln)
				if len(pf) != 1+len(moments) {
					return nil, fmt.Errorf("basis: primitive line %q has %d columns, want %d",
						ln, len(pf), 1+len(moments))
				}
				// An exponent must be a positive finite number and a coefficient
				// finite: anything else makes every integral over the shell NaN.
				where := fmt.Sprintf("element %s, shell %d (%s)", element, len(specs)+1, shellType)
				exp, err := strconv.ParseFloat(pf[0], 64)
				if err != nil {
					return nil, fmt.Errorf("basis: %s: bad exponent %q: %v", where, pf[0], err)
				}
				if !(exp > 0) || math.IsInf(exp, 1) {
					return nil, fmt.Errorf("basis: %s: exponent %q is not a positive finite number", where, pf[0])
				}
				spec.exps = append(spec.exps, exp)
				for m := range moments {
					c, err := strconv.ParseFloat(pf[1+m], 64)
					if err != nil {
						return nil, fmt.Errorf("basis: %s: bad coefficient %q: %v", where, pf[1+m], err)
					}
					if math.IsNaN(c) || math.IsInf(c, 0) {
						return nil, fmt.Errorf("basis: %s: coefficient %q is not finite", where, pf[1+m])
					}
					spec.coefs[m] = append(spec.coefs[m], c)
				}
			}
			specs = append(specs, spec)
		}
		out[element] = append(out[element], specs...)
	}
}

// RegisterGBS parses a Gaussian94 basis text and installs it under the
// given name, making it available to Build. Re-registering a name
// replaces it; built-in names cannot be overwritten.
func RegisterGBS(name, text string) error {
	key := normalizeName(name)
	switch key {
	case "sto-3g", "6-31g", "6-31g(d)":
		return fmt.Errorf("basis: cannot overwrite built-in basis %q", name)
	}
	lib, err := ParseGBS(text)
	if err != nil {
		return err
	}
	if len(lib) == 0 {
		return fmt.Errorf("basis: %q defines no elements", name)
	}
	libraries[key] = lib
	return nil
}
