package orphan

import (
	"testing"

	"fixture/internal/core"
)

func TestHelper(t *testing.T) {
	if core.Helper() != 2 || (core.Settings{OtherTest: 1}).OtherTest != 1 {
		t.Fatal("fixture")
	}
}
