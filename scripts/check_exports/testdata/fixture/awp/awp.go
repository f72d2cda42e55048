// Package awp is the fixture's public API: exempt from the function and
// field rules.
package awp

import "fixture/internal/core"

// Options has a field nothing sets, and passes: awp is exempt.
type Options struct{ Unset int }

// Run is called by cmd/tool.
func Run(o Options) string { return core.Used() + string(rune(o.Unset+core.Apply())) }

// Unused has no caller, and passes: awp is exempt.
func Unused() {}
