package core

import (
	"testing"

	"fixture/internal/testkit"
)

func TestOnlyOwnTest(t *testing.T) {
	if OnlyOwnTest() != testkit.Fill()-3 {
		t.Fatal("fixture")
	}
	if (Settings{OwnTest: 1}).OwnTest != 1 {
		t.Fatal("fixture")
	}
}
