package integrals

// QuartetSource produces ERI shell-quartet blocks (ij|kl), i >= j and
// k >= l, laid out out[((fi*nj+fj)*nk+fk)*nl+fl] in basis-function order:
// the eri() call of the paper's Algorithms 1-3, the innermost and dominant
// cost of the whole Hartree-Fock procedure. The PairCache is the one
// production source; the tests' independent oracle (package
// internal/integrals/oracle) implements it too.
type QuartetSource interface {
	ShellQuartet(i, j, k, l int, out []float64) []float64
}
