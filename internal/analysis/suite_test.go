package analysis_test

import (
	"testing"

	"mocca/internal/analysis"
	"mocca/internal/analysis/analysistest"
)

func TestDeterminism(t *testing.T) {
	analysistest.Run(t, "testdata/determinism", analysis.Determinism)
}

func TestLockOrder(t *testing.T) {
	analysistest.Run(t, "testdata/lockorder", analysis.LockOrder)
}

func TestStatSnapshot(t *testing.T) {
	analysistest.Run(t, "testdata/statsnapshot", analysis.StatSnapshot)
}

func TestGoroutines(t *testing.T) {
	analysistest.Run(t, "testdata/goroutines", analysis.Goroutines)
}

func TestGoroutinesOutsideSimulatedPackages(t *testing.T) {
	analysistest.Run(t, "testdata/goroutinesclean", analysis.Goroutines)
}

func TestErrDrop(t *testing.T) {
	analysistest.Run(t, "testdata/errdrop", analysis.ErrDrop)
}

func TestErrDropInReplica(t *testing.T) {
	analysistest.Run(t, "testdata/errdropreplica", analysis.ErrDrop)
}
