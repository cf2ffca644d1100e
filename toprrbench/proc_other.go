//go:build !linux

package main

import "syscall"

// childAttr returns no attributes outside Linux.
func childAttr() *syscall.SysProcAttr { return nil }
