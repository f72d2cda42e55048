package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var packages = []string{"fd", "attenuation", "boundary"}

// TestGeneratedFilesAreCurrent regenerates every package's files and holds
// the committed ones to them byte for byte: a table edited without
// go generate fails here.
func TestGeneratedFilesAreCurrent(t *testing.T) {
	for _, pkg := range packages {
		files, err := generate(pkg)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			path := filepath.Join("..", "..", "internal", "core", pkg, f.name)
			have, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(have, f.data) {
				t.Errorf("%s is stale: run go generate ./internal/core/%s", path, pkg)
			}
			if !regexp.MustCompile(`^// Code generated .* DO NOT EDIT\.\n`).Match(f.data) {
				t.Errorf("%s has no generated-code header", path)
			}
		}
	}
}

// walkers returns each package's generated assembly.
func walkers(t *testing.T) map[string]string {
	out := map[string]string{}
	for _, pkg := range packages {
		files, err := generate(pkg)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			if strings.HasSuffix(f.name, ".s") {
				out[pkg] = string(f.data)
			}
		}
	}
	return out
}

// TestFullChunkLoopsAligned: a full-chunk loop that is not 32-byte aligned
// moves with whatever the linker places before it, and the walker's speed
// with it. Every walker has one such loop an expansion: full where its table
// has a cell program, and tfull where it takes a taper, on its stores or on
// its loads.
func TestFullChunkLoopsAligned(t *testing.T) {
	ws := walkers(t)
	for pkg, s := range ws {
		lines := strings.Split(s, "\n")
		for i, l := range lines {
			if (l == "full:" || l == "tfull:") && (i < 2 || strings.TrimSpace(lines[i-2]) != "PCALIGN $32") {
				t.Errorf("%s: loop %q at line %d has no PCALIGN $32 ahead of it", pkg, l, i+1)
			}
		}
	}
	for _, tb := range tables {
		_, text, _ := strings.Cut(ws[tb.pkg], "\nTEXT ·"+tb.walker+"(SB)")
		text, _, _ = strings.Cut(text, "\nTEXT ")
		var loops []string
		if strings.TrimSpace(tb.program) != "" {
			loops = append(loops, "full:")
		}
		if tb.tapers() {
			loops = append(loops, "tfull:")
		}
		for _, l := range loops {
			if !strings.Contains(text, "\n"+l+"\n") {
				t.Errorf("%s: walker %s has no %q loop", tb.pkg, tb.walker, l)
			}
		}
	}
}

// TestWalkersAreVEXWithoutFMA: every instruction on a vector register is
// VEX-encoded (one legacy SSE instruction among them made the velocity
// walker 1.8× slower on a Xeon with AVX-512), and none fuses a multiply into
// an add, which would round once where the Go body rounds twice.
func TestWalkersAreVEXWithoutFMA(t *testing.T) {
	vecReg := regexp.MustCompile(`\b[XY]\d+\b`)
	for pkg, s := range walkers(t) {
		for i, l := range strings.Split(s, "\n") {
			f := strings.Fields(l)
			if len(f) == 0 || !strings.HasPrefix(l, "\t") || strings.HasPrefix(f[0], "//") {
				continue
			}
			if strings.Contains(f[0], "FMA") || strings.Contains(f[0], "FNM") {
				t.Errorf("%s:%d: fused multiply-add %s", pkg, i+1, l)
			}
			if vecReg.MatchString(l) && !strings.HasPrefix(f[0], "V") && !strings.HasPrefix(f[0], "QUIESCE") {
				t.Errorf("%s:%d: legacy SSE instruction %s", pkg, i+1, l)
			}
		}
	}
}
