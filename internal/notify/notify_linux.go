//go:build linux

package notify

import (
	"bytes"
	"encoding/binary"
	"os"
	"sync"
	"syscall"
)

// Watch watches path and returns a channel that receives a value after a
// change lands, and a function that stops the watch and releases its file
// descriptor. Wakes coalesce: however many changes land between two
// receives, one value is pending.
//
// If path is a directory, an entry written and closed there, or renamed
// into it, wakes the channel when match(name) is true for its base name
// (a nil match accepts every name). If path is a file, every write to it
// wakes the channel and match is not used.
//
// A watch is a Linux inotify instance. If one cannot be created (the
// per-user instance limit, a path that does not exist), Watch returns the
// error and the caller polls. A kernel event queue overflow wakes the
// channel once, since the lost events may have named a change.
func Watch(path string, match func(name string) bool) (<-chan struct{}, func(), error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, nil, err
	}
	mask := uint32(syscall.IN_MODIFY)
	if st.IsDir() {
		mask = syscall.IN_CLOSE_WRITE | syscall.IN_MOVED_TO
	} else {
		match = nil
	}
	fd, err := syscall.InotifyInit1(syscall.IN_NONBLOCK | syscall.IN_CLOEXEC)
	if err != nil {
		return nil, nil, os.NewSyscallError("inotify_init1", err)
	}
	if _, err := syscall.InotifyAddWatch(fd, path, mask); err != nil {
		syscall.Close(fd)
		return nil, nil, &os.PathError{Op: "inotify_add_watch", Path: path, Err: err}
	}
	// A non-blocking descriptor goes to the runtime poller, so Close
	// unblocks the reader goroutine's pending Read.
	w := &watcher{
		f:    os.NewFile(uintptr(fd), "inotify:"+path),
		wake: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	go w.read(match)
	return w.wake, w.close, nil
}

type watcher struct {
	f    *os.File
	wake chan struct{}
	done chan struct{} // closed when read has returned
	once sync.Once
}

// read turns events into wakes until the watch is closed.
func (w *watcher) read(match func(name string) bool) {
	defer close(w.done)
	// Room for at least one event with the longest name the kernel sends.
	var buf [4096]byte
	for {
		n, err := w.f.Read(buf[:])
		if err != nil {
			return
		}
		for off := 0; off+syscall.SizeofInotifyEvent <= n; {
			mask := binary.NativeEndian.Uint32(buf[off+4:])
			end := off + syscall.SizeofInotifyEvent + int(binary.NativeEndian.Uint32(buf[off+12:]))
			name := bytes.TrimRight(buf[off+syscall.SizeofInotifyEvent:min(end, n)], "\x00")
			off = end
			if mask&syscall.IN_Q_OVERFLOW != 0 || match == nil || match(string(name)) {
				select {
				case w.wake <- struct{}{}:
				default:
				}
			}
		}
	}
}

// close stops the watch and returns once the reader goroutine has exited.
// Closing twice is a no-op.
func (w *watcher) close() {
	w.once.Do(func() {
		w.f.Close()
		<-w.done
	})
}
