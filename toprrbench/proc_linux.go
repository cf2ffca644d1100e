package main

import "syscall"

// childAttr makes the kernel stop the toprrd child if the benchmark
// dies without stopping it.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
