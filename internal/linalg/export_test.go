package linalg

// BodyNames names every MulAdd body, narrowest first, whether or not
// this host can run it.
var BodyNames = []string{"go", "avx", "avx512"}

// UseBody selects the MulAdd body called name until the returned restore
// is called, for the tests that compare the bodies. ok is false, and
// nothing changes, when the host's CPUID probe did not report that body.
func UseBody(name string) (restore func(), ok bool) {
	selected := mulAdd
	for _, b := range bodies {
		if b.name == name {
			mulAdd = b.f
			return func() { mulAdd = selected }, true
		}
	}
	return func() {}, false
}
