// Package molecule defines molecular geometries for the Hartree-Fock code:
// atoms, nuclear repulsion, standard small molecules, hydrogen-terminated
// graphene nanoribbons, and the graphene bilayer generator that produces
// the paper's benchmark systems (Table 4) with exact atom counts.
//
// Coordinates are stored in bohr (atomic units); builder helpers accept
// angstroms because that is how the geometries are tabulated.
package molecule

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"unicode"
)

// BohrPerAngstrom converts angstrom lengths into atomic units.
const BohrPerAngstrom = 1.8897259886

// Atom is a nucleus with charge Z at a position in bohr.
type Atom struct {
	Z      int
	Symbol string
	Pos    [3]float64
}

// Molecule is an ordered collection of atoms plus a total charge used to
// determine the electron count.
type Molecule struct {
	Name   string
	Atoms  []Atom
	Charge int
}

var symbolToZ = map[string]int{
	"H": 1, "He": 2, "Li": 3, "Be": 4, "B": 5, "C": 6, "N": 7, "O": 8,
	"F": 9, "Ne": 10, "Na": 11, "Mg": 12, "Al": 13, "Si": 14, "P": 15,
	"S": 16, "Cl": 17, "Ar": 18,
}

// ZForSymbol returns the atomic number for an element symbol.
func ZForSymbol(sym string) (int, error) {
	z, ok := symbolToZ[sym]
	if !ok {
		return 0, fmt.Errorf("molecule: unknown element %q", sym)
	}
	return z, nil
}

// AddAtomAngstrom appends an atom given in angstrom coordinates.
func (m *Molecule) AddAtomAngstrom(sym string, x, y, z float64) {
	zn, err := ZForSymbol(sym)
	if err != nil {
		panic(err)
	}
	m.Atoms = append(m.Atoms, Atom{
		Z:      zn,
		Symbol: sym,
		Pos:    [3]float64{x * BohrPerAngstrom, y * BohrPerAngstrom, z * BohrPerAngstrom},
	})
}

// NumAtoms returns the number of atoms.
func (m *Molecule) NumAtoms() int { return len(m.Atoms) }

// NumElectrons returns the electron count (sum of Z minus charge).
func (m *Molecule) NumElectrons() int {
	n := 0
	for _, a := range m.Atoms {
		n += a.Z
	}
	return n - m.Charge
}

// NuclearRepulsion returns the classical nucleus-nucleus repulsion energy
// in hartree.
func (m *Molecule) NuclearRepulsion() float64 {
	e := 0.0
	for i := 0; i < len(m.Atoms); i++ {
		for j := 0; j < i; j++ {
			e += float64(m.Atoms[i].Z*m.Atoms[j].Z) / Distance(m.Atoms[i].Pos, m.Atoms[j].Pos)
		}
	}
	return e
}

// Distance returns the Euclidean distance between two points.
func Distance(a, b [3]float64) float64 {
	dx, dy, dz := a[0]-b[0], a[1]-b[1], a[2]-b[2]
	return math.Sqrt(dx*dx + dy*dy + dz*dz)
}

// Centroid returns the geometric center of the molecule.
func (m *Molecule) Centroid() [3]float64 {
	var c [3]float64
	if len(m.Atoms) == 0 {
		return c
	}
	for _, a := range m.Atoms {
		for k := 0; k < 3; k++ {
			c[k] += a.Pos[k]
		}
	}
	for k := 0; k < 3; k++ {
		c[k] /= float64(len(m.Atoms))
	}
	return c
}

// XYZ renders the molecule in the conventional XYZ text format (angstrom).
func (m *Molecule) XYZ() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d\n%s\n", len(m.Atoms), m.Name)
	for _, a := range m.Atoms {
		fmt.Fprintf(&b, "%-2s %14.8f %14.8f %14.8f\n", a.Symbol,
			a.Pos[0]/BohrPerAngstrom, a.Pos[1]/BohrPerAngstrom, a.Pos[2]/BohrPerAngstrom)
	}
	return b.String()
}

// ParseXYZ parses the conventional XYZ format (angstrom coordinates). It
// refuses what no SCF can run — an atom count below 1, an unknown element,
// a coordinate that is not a finite number (or overflows on conversion to
// bohr) — with an error naming the line.
func ParseXYZ(text string) (*Molecule, error) {
	body := strings.TrimLeftFunc(text, unicode.IsSpace)
	first := 1 + strings.Count(text[:len(text)-len(body)], "\n") // line number of lines[0]
	lines := strings.Split(strings.TrimRightFunc(body, unicode.IsSpace), "\n")
	if len(lines) < 2 {
		return nil, fmt.Errorf("molecule: XYZ too short")
	}
	var n int
	if _, err := fmt.Sscanf(strings.TrimSpace(lines[0]), "%d", &n); err != nil {
		return nil, fmt.Errorf("molecule: line %d: bad atom count: %v", first, err)
	}
	if n < 1 {
		return nil, fmt.Errorf("molecule: line %d: atom count %d, want at least 1", first, n)
	}
	if len(lines) < 2+n {
		return nil, fmt.Errorf("molecule: XYZ declares %d atoms but has %d lines", n, len(lines))
	}
	m := &Molecule{Name: strings.TrimSpace(lines[1])}
	for i := 0; i < n; i++ {
		line := first + 2 + i
		var sym string
		var x, y, z float64
		if _, err := fmt.Sscanf(strings.TrimSpace(lines[2+i]), "%s %f %f %f", &sym, &x, &y, &z); err != nil {
			return nil, fmt.Errorf("molecule: line %d: bad atom line: %v", line, err)
		}
		if _, err := ZForSymbol(sym); err != nil {
			return nil, fmt.Errorf("molecule: line %d: unknown element %q", line, sym)
		}
		m.AddAtomAngstrom(sym, x, y, z)
		for _, v := range m.Atoms[i].Pos {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("molecule: line %d: %q has a coordinate that is not finite in bohr", line, lines[2+i])
			}
		}
	}
	return m, nil
}

// --- Standard small molecules (real-execution test workloads) ---

// H2 returns molecular hydrogen at 0.74 angstrom.
func H2() *Molecule {
	m := &Molecule{Name: "H2"}
	m.AddAtomAngstrom("H", 0, 0, 0)
	m.AddAtomAngstrom("H", 0, 0, 0.74)
	return m
}

// HeHPlus returns the HeH+ cation, the classic two-electron closed-shell
// test system.
func HeHPlus() *Molecule {
	m := &Molecule{Name: "HeH+", Charge: 1}
	m.AddAtomAngstrom("He", 0, 0, 0)
	m.AddAtomAngstrom("H", 0, 0, 0.7743)
	return m
}

// Water returns H2O at a near-equilibrium geometry.
func Water() *Molecule {
	m := &Molecule{Name: "H2O"}
	m.AddAtomAngstrom("O", 0.0000000, 0.0000000, 0.1173470)
	m.AddAtomAngstrom("H", 0.0000000, 0.7572160, -0.4693880)
	m.AddAtomAngstrom("H", 0.0000000, -0.7572160, -0.4693880)
	return m
}

// Methane returns CH4 in tetrahedral geometry (r_CH = 1.089 angstrom).
func Methane() *Molecule {
	m := &Molecule{Name: "CH4"}
	d := 1.089 / math.Sqrt(3)
	m.AddAtomAngstrom("C", 0, 0, 0)
	m.AddAtomAngstrom("H", d, d, d)
	m.AddAtomAngstrom("H", d, -d, -d)
	m.AddAtomAngstrom("H", -d, d, -d)
	m.AddAtomAngstrom("H", -d, -d, d)
	return m
}

// Ammonia returns NH3.
func Ammonia() *Molecule {
	m := &Molecule{Name: "NH3"}
	m.AddAtomAngstrom("N", 0.0000, 0.0000, 0.1173)
	m.AddAtomAngstrom("H", 0.0000, 0.9377, -0.2738)
	m.AddAtomAngstrom("H", 0.8121, -0.4689, -0.2738)
	m.AddAtomAngstrom("H", -0.8121, -0.4689, -0.2738)
	return m
}

// Benzene returns C6H6 (r_CC = 1.39, r_CH = 1.09 angstrom, planar).
func Benzene() *Molecule {
	m := &Molecule{Name: "C6H6"}
	const rc, rh = 1.39, 1.39 + 1.09
	for i := 0; i < 6; i++ {
		th := float64(i) * math.Pi / 3
		m.AddAtomAngstrom("C", rc*math.Cos(th), rc*math.Sin(th), 0)
	}
	for i := 0; i < 6; i++ {
		th := float64(i) * math.Pi / 3
		m.AddAtomAngstrom("H", rh*math.Cos(th), rh*math.Sin(th), 0)
	}
	return m
}

// --- Graphene generators (the paper's benchmark systems) ---

// CCBond is the graphene carbon-carbon bond length in angstrom.
const CCBond = 1.42

// InterlayerSpacing is the graphite interlayer distance in angstrom.
const InterlayerSpacing = 3.35

// grapheneLattice generates honeycomb lattice sites covering roughly
// (2*nx+1) x (2*ny+1) unit cells centered at the origin, in angstrom.
// The lattice vectors are a1=(sqrt(3) a, 0), a2=(sqrt(3)/2 a, 3/2 a) with
// the two-atom basis (0,0) and (0, a), a = CCBond.
func grapheneLattice(nx, ny int) [][3]float64 {
	a := CCBond
	a1 := [2]float64{math.Sqrt(3) * a, 0}
	a2 := [2]float64{math.Sqrt(3) / 2 * a, 1.5 * a}
	var pts [][3]float64
	for i := -nx; i <= nx; i++ {
		for j := -ny; j <= ny; j++ {
			bx := float64(i)*a1[0] + float64(j)*a2[0]
			by := float64(i)*a1[1] + float64(j)*a2[1]
			pts = append(pts, [3]float64{bx, by, 0})
			pts = append(pts, [3]float64{bx, by + a, 0})
		}
	}
	return pts
}

// GrapheneFlake returns a single-layer graphene flake with exactly n carbon
// atoms: the n lattice sites closest to the flake center, with a
// deterministic tie-break. This is how the repository realizes the paper's
// "easily manipulated" graphene sheet sizes.
func GrapheneFlake(n int) *Molecule {
	if n <= 0 {
		panic("molecule: GrapheneFlake needs n > 0")
	}
	// Enough cells to cover n sites generously.
	span := int(math.Ceil(math.Sqrt(float64(n)))) + 3
	pts := grapheneLattice(span, span)
	sort.Slice(pts, func(i, j int) bool {
		ri := pts[i][0]*pts[i][0] + pts[i][1]*pts[i][1]
		rj := pts[j][0]*pts[j][0] + pts[j][1]*pts[j][1]
		if ri != rj {
			return ri < rj
		}
		if pts[i][0] != pts[j][0] {
			return pts[i][0] < pts[j][0]
		}
		return pts[i][1] < pts[j][1]
	})
	m := &Molecule{Name: fmt.Sprintf("graphene-C%d", n)}
	for _, p := range pts[:n] {
		m.AddAtomAngstrom("C", p[0], p[1], p[2])
	}
	return m
}

// GrapheneBilayer returns an AB-stacked bilayer with atomsPerLayer carbons
// in each layer, separated by the graphite interlayer spacing.
func GrapheneBilayer(atomsPerLayer int) *Molecule {
	layer := GrapheneFlake(atomsPerLayer)
	m := &Molecule{Name: fmt.Sprintf("bilayer-graphene-C%d", 2*atomsPerLayer)}
	for _, a := range layer.Atoms {
		m.Atoms = append(m.Atoms, a)
	}
	// AB stacking: second layer shifted by one bond length along y.
	shift := CCBond * BohrPerAngstrom
	dz := InterlayerSpacing * BohrPerAngstrom
	for _, a := range layer.Atoms {
		m.Atoms = append(m.Atoms, Atom{
			Z: a.Z, Symbol: a.Symbol,
			Pos: [3]float64{a.Pos[0], a.Pos[1] + shift, a.Pos[2] + dz},
		})
	}
	return m
}

// PaperSystemSpec records the published size characteristics of one of the
// paper's benchmark systems (Table 4).
type PaperSystemSpec struct {
	Name   string
	Atoms  int
	Shells int // GAMESS shell count with 6-31G(d): 4 per carbon (S, L, L, D)
	BasisF int // 15 basis functions per carbon (1 + 4 + 4 + 6 cartesian d)
}

// PaperSystems lists the five graphene bilayer configurations of Table 4.
var PaperSystems = []PaperSystemSpec{
	{Name: "0.5nm", Atoms: 44, Shells: 176, BasisF: 660},
	{Name: "1.0nm", Atoms: 120, Shells: 480, BasisF: 1800},
	{Name: "1.5nm", Atoms: 220, Shells: 880, BasisF: 3300},
	{Name: "2.0nm", Atoms: 356, Shells: 1424, BasisF: 5340},
	{Name: "5.0nm", Atoms: 2016, Shells: 8064, BasisF: 30240},
}

// PaperSystemNames lists the benchmark systems PaperSystem accepts, in
// Table 4 order.
func PaperSystemNames() []string {
	names := make([]string, len(PaperSystems))
	for i, s := range PaperSystems {
		names[i] = s.Name
	}
	return names
}

// PaperSystem builds the named benchmark system ("0.5nm" ... "5.0nm") as a
// graphene bilayer with the exact Table 4 atom count. The unknown-name
// error lists the available systems, derived from PaperSystems so it can
// never go stale.
func PaperSystem(name string) (*Molecule, error) {
	for _, s := range PaperSystems {
		if s.Name == name {
			m := GrapheneBilayer(s.Atoms / 2)
			m.Name = "bilayer-graphene-" + name
			return m, nil
		}
	}
	return nil, fmt.Errorf("molecule: unknown paper system %q (available: %s)",
		name, strings.Join(PaperSystemNames(), ", "))
}

// CHBond is the carbon-hydrogen bond length used for edge termination
// (angstrom).
const CHBond = 1.09

// GrapheneNanoribbon returns a hydrogen-terminated rectangular graphene
// fragment of roughly width x length angstrom — the nanoribbon geometry
// of the superlubricity experiments the paper's benchmark systems model
// (Kawai et al. 2016). Edge carbons with fewer than three carbon
// neighbors receive hydrogens along the missing lattice directions,
// giving a chemically saturated, closed-shell system suitable for real
// RHF runs (bare flakes have open-shell edges).
func GrapheneNanoribbon(widthAng, lengthAng float64) *Molecule {
	if widthAng <= 0 || lengthAng <= 0 {
		panic("molecule: nanoribbon dimensions must be positive")
	}
	// Oversized lattice patch (angstrom coordinates). The cut window is
	// centered on a hexagon center so that small cuts produce complete
	// benzenoid rings (benzene, naphthalene, ...) rather than fragments.
	span := int(math.Ceil(math.Max(widthAng, lengthAng)/CCBond)) + 3
	pts := grapheneLattice(span, span)
	cx, cy := math.Sqrt(3)/2*CCBond, CCBond/2
	inRect := func(p [3]float64) bool {
		return math.Abs(p[0]-cx) <= lengthAng/2 && math.Abs(p[1]-cy) <= widthAng/2
	}
	var carbons [][3]float64
	for _, p := range pts {
		if inRect(p) {
			carbons = append(carbons, p)
		}
	}
	sort.Slice(carbons, func(i, j int) bool {
		if carbons[i][0] != carbons[j][0] {
			return carbons[i][0] < carbons[j][0]
		}
		return carbons[i][1] < carbons[j][1]
	})
	inSet := func(p [3]float64) bool {
		for _, c := range carbons {
			dx, dy := c[0]-p[0], c[1]-p[1]
			if dx*dx+dy*dy < 1e-6 {
				return true
			}
		}
		return false
	}
	m := &Molecule{Name: fmt.Sprintf("nanoribbon-%gx%g", widthAng, lengthAng)}
	for _, c := range carbons {
		m.AddAtomAngstrom("C", c[0], c[1], 0)
	}
	// Terminate: for each carbon, find ideal lattice neighbors from the
	// full patch; absent ones become C-H directions.
	for _, c := range carbons {
		for _, p := range pts {
			dx, dy := p[0]-c[0], p[1]-c[1]
			d2 := dx*dx + dy*dy
			if d2 < 1e-6 || d2 > (CCBond*1.05)*(CCBond*1.05) {
				continue
			}
			if inSet(p) {
				continue
			}
			// Missing neighbor: hydrogen along this direction at CHBond.
			d := math.Sqrt(d2)
			m.AddAtomAngstrom("H", c[0]+dx/d*CHBond, c[1]+dy/d*CHBond, 0)
		}
	}
	return m
}
