package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer sleeps with microsecond precision. The runtime's own timers
// round an idle process's sub-millisecond sleeps up to about a
// millisecond, which would skew an open-loop schedule and quantize
// completion polling. A non-blocking timerfd waits in the network
// poller instead, so a sleeping goroutine holds no thread and wakes on
// time. One pacer serves one goroutine.
type pacer struct {
	fd  uintptr
	f   *os.File
	buf [8]byte
}

func newPacer() (*pacer, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	return &pacer{fd: fd, f: os.NewFile(fd, "timerfd")}, nil
}

// sleep blocks the calling goroutine for d.
func (p *pacer) sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	spec := struct{ interval, value syscall.Timespec }{value: syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		time.Sleep(d)
		return
	}
	if _, err := p.f.Read(p.buf[:]); err != nil {
		time.Sleep(d)
	}
}

// until sleeps until t.
func (p *pacer) until(t time.Time) { p.sleep(time.Until(t)) }

func (p *pacer) close() { p.f.Close() }
