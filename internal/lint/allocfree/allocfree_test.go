package allocfree_test

import (
	"testing"

	"softlora/internal/lint/allocfree"
	"softlora/internal/lint/analysistest"
)

func TestAllocFree(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), allocfree.Analyzer, "a", "transroot", "transleaf", "asmstub")
}
