package linalg

// PackedIndex returns the index of element (i, j) of a symmetric matrix
// in lower-triangular packed order, the layout GAMESS uses for the Fock
// and density matrices: element (i, j) with i >= j sits at i*(i+1)/2 + j.
// i and j may be given in either order.
func PackedIndex(i, j int) int {
	if i < j {
		i, j = j, i
	}
	return i*(i+1)/2 + j
}
