package topk

// firstAbove returns the least index j >= i with s[j] > root, or len(s) if
// there is none: firstAboveGeneric, in assembly (threshold_amd64.s).
//
//go:noescape
func firstAbove(s []float32, i int, root float32) int
