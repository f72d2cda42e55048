package core

import "testing"

func TestOnlyOwnTest(t *testing.T) {
	if OnlyOwnTest() != 0 {
		t.Fatal("fixture")
	}
	if (Settings{OwnTest: 1}).OwnTest != 1 {
		t.Fatal("fixture")
	}
}
