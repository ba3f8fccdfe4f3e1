//go:build !linux

package main

import "time"

func fsType(string) string { return "unknown" }

func cpuTime() time.Duration { return 0 }
