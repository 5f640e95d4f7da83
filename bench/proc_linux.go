package main

import (
	"os/exec"
	"syscall"
)

// killWithParent makes the kernel kill cmd if the benchmark dies first,
// so an interrupted run leaves no server behind.
func killWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
