//go:build !linux

package main

import "os/exec"

func killWithParent(*exec.Cmd) {}
