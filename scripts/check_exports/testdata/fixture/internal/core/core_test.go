package core

import "testing"

func TestOnlyOwnTest(t *testing.T) {
	if OnlyOwnTest() != 0 {
		t.Fatal("fixture")
	}
}
