package orphan

import (
	"testing"

	"fixture/internal/core"
	"fixture/internal/medium"
)

func TestHelper(t *testing.T) {
	if core.Helper() != 2 || (core.Settings{OtherTest: 1}).OtherTest != 1 || medium.FromArrays() != 2 {
		t.Fatal("fixture")
	}
}
