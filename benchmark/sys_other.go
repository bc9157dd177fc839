//go:build !linux

package main

import "time"

func processCPU() time.Duration { return 0 }

func fsType(string) string { return "unknown" }
