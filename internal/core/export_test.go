package core

import (
	"testing"

	"repro/internal/iloc"
)

// Exported to the external tests of this directory.

// ReuseRoutines returns the routines and options of reuseItems.
func ReuseRoutines(t *testing.T) (names []string, rts []*iloc.Routine, opts []Options) {
	for _, it := range reuseItems(t) {
		names, rts, opts = append(names, it.name), append(rts, it.rt), append(opts, it.opts)
	}
	return names, rts, opts
}

var (
	AllocateOnNewScratch = allocateOnNewScratch
	ResultDigest         = resultDigest
)
