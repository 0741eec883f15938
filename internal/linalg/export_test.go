package linalg

// UseGoBody selects MulAdd's pure-Go body until the returned restore is
// called, for tests outside the package that compare the two bodies.
func UseGoBody() (restore func()) {
	selected := mulAdd
	mulAdd = mulAddGo
	return func() { mulAdd = selected }
}
