package orphan

import (
	"testing"

	"fixture/internal/core"
)

func TestHelper(t *testing.T) {
	if core.Helper() != 2 {
		t.Fatal("fixture")
	}
}
