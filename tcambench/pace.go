package main

// Precise waits for the load generators. A Go timer on an otherwise idle
// processor wakes through an epoll timeout of whole milliseconds, so a
// 100µs sleep overshoots by about a millisecond; a raw nanosleep holds
// the processor; spinning starves the network poller. A Linux timerfd
// read through the runtime's poller avoids all three: the goroutine
// parks, the processor stays free, and the kernel's high-resolution
// timer wakes it within tens of microseconds.

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

const (
	clockMonotonic = 1
	tfdNonblock    = syscall.O_NONBLOCK
	tfdCloexec     = syscall.O_CLOEXEC
)

// pacer sleeps until absolute times on one timerfd. Not safe for
// concurrent use.
type pacer struct {
	f   *os.File
	fd  uintptr
	buf [8]byte
}

func newPacer() (*pacer, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &pacer{f: os.NewFile(fd, "timerfd"), fd: fd}, nil
}

// until blocks until t. Should the timer fail, it falls back to a Go
// sleep: the run stays correct, and the lateness it adds is reported.
func (p *pacer) until(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	// struct itimerspec{it_interval, it_value}, relative, one-shot.
	spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		time.Sleep(d)
		return
	}
	if _, err := p.f.Read(p.buf[:]); err != nil {
		time.Sleep(time.Until(t))
	}
}

func (p *pacer) close() error { return p.f.Close() }
