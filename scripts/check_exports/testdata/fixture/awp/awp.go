// Package awp is the fixture's public API: exempt from the function rule.
package awp

import "fixture/internal/core"

// Run is called by cmd/tool.
func Run() string { return core.Used() }

// Unused has no caller, and passes: awp is exempt.
func Unused() {}
