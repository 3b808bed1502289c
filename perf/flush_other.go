//go:build !amd64

package main

// Without a user-mode cache flush the catalog stays wherever the host
// leaves it; see workloadDef.ColdCatalog.
const canFlush = false

func flushFromCaches(data []float32) {}
