package signature

// IsBottom reports whether sg's named transition cannot be sharded. The
// signature's tests are an external package; this is their bottom
// check.
func IsBottom(sg *Signature, transition string) bool {
	for _, c := range sg.Constraints[transition] {
		if c.Kind == CBottom {
			return true
		}
	}
	return false
}
