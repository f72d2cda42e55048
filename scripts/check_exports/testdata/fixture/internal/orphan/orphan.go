// Package orphan is imported by bench/ only: fails the package rule.
package orphan
