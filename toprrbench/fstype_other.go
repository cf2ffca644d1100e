//go:build !linux

package main

// fsType names the filesystem holding dir; only Linux is supported.
func fsType(dir string) string { return "unknown" }
