//go:build !amd64

package topk

// firstAbove returns the least index j >= i with s[j] > root, or len(s) if
// there is none. Without an assembly kernel for this platform it is the
// reference loop itself.
func firstAbove(s []float32, i int, root float32) int {
	return firstAboveGeneric(s, i, root)
}
