// Command lanegen writes the stencil sweeps' row bodies and their 8-lane AVX2
// walkers from one table per body (tables.go). Run from a package directory
// by go generate, it writes the package's four generated files:
//
//	sweeps_gen.go            the Go row bodies, every host's oracle and the
//	                         body off amd64 or without AVX2
//	walkers_gen_amd64.s      the AVX2 tile walkers
//	walkers_gen_amd64.go     their //go:noescape declarations
//	walkers_gen_other.go     the stubs off amd64, which panic
//
// Usage: go run repro/scripts/lanegen <package>   (fd, attenuation or boundary)
package main

import (
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: lanegen <package>")
		os.Exit(2)
	}
	files, err := generate(os.Args[1])
	if err == nil {
		for _, f := range files {
			if err = os.WriteFile(filepath.Join(".", f.name), f.data, 0o644); err != nil {
				break
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lanegen:", err)
		os.Exit(1)
	}
}

type file struct {
	name string
	data []byte
}

// generate returns the generated files of package pkg.
func generate(pkg string) ([]file, error) {
	var ts []*table
	for _, t := range tables {
		if t.pkg == pkg {
			if err := t.parse(); err != nil {
				return nil, fmt.Errorf("%s: %v", t.body, err)
			}
			ts = append(ts, t)
		}
	}
	if len(ts) == 0 {
		return nil, fmt.Errorf("no table for package %q", pkg)
	}
	rows, err := goRows(pkg, ts)
	if err != nil {
		return nil, err
	}
	s, err := asmFile(ts)
	if err != nil {
		return nil, err
	}
	return []file{
		{"sweeps_gen.go", rows},
		{"walkers_gen_amd64.s", s},
		{"walkers_gen_amd64.go", goStubs(pkg, ts, true)},
		{"walkers_gen_other.go", goStubs(pkg, ts, false)},
	}, nil
}
