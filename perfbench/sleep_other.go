//go:build !linux

package main

import "time"

// sleep pauses the calling goroutine for d.
func sleep(d time.Duration) { time.Sleep(d) }
