// Package orphan is imported by bench/ only: fails the package rule.
package orphan

import "fixture/internal/testkit"

var _ = testkit.Fill
