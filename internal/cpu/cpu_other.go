//go:build !amd64

package cpu

func probe() Feature { return Feature{Why: "not an amd64 host"} }
