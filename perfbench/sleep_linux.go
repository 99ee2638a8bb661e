package main

import (
	"syscall"
	"time"
)

// sleep pauses the calling goroutine for d with the kernel's timer
// precision. The runtime's own timers wake idle processes on a millisecond
// grid, which would add up to a millisecond of generator lateness to every
// open-loop request; a nanosleep system call parks only this thread.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	for {
		var left syscall.Timespec
		if err := syscall.Nanosleep(&ts, &left); err != syscall.EINTR {
			return
		}
		ts = left
	}
}
