// Package orphan is imported by bench/ only: fails the package rule.
package orphan

// F is called by bench/: passes the function rule.
func F() {}
