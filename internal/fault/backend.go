package fault

import (
	"io"
	"time"

	"pclouds/internal/ooc"
)

// Backend wraps an ooc.Backend, applying the injector's rules to file-level
// operations (create/append/open/remove) and to every byte-level read and
// write on the streams it hands out. Install it with Store.WrapBackend:
//
//	st.WrapBackend(fault.WrapBackend(inj, rank))
type Backend struct {
	inner ooc.Backend
	inj   *Injector
	rank  int
}

var _ ooc.Backend = (*Backend)(nil)

// WrapBackend returns a wrapper suitable for ooc.Store.WrapBackend,
// attributing the store's operations to the given rank.
func WrapBackend(inj *Injector, rank int) func(ooc.Backend) ooc.Backend {
	return func(b ooc.Backend) ooc.Backend {
		return &Backend{inner: b, inj: inj, rank: rank}
	}
}

// fileOp applies a file-level rule decision; it reports the injected error,
// if any.
func (b *Backend) fileOp(op Op) error {
	r := b.inj.decide(b.rank, op, AnyClass)
	if r == nil {
		return nil
	}
	switch r.Action {
	case Slow, Delay:
		time.Sleep(r.Delay)
		return nil
	case Error:
		return injectedErr(b.rank, op)
	}
	return nil
}

// Create implements ooc.Backend.
func (b *Backend) Create(name string) (io.WriteCloser, error) {
	if err := b.fileOp(OpCreate); err != nil {
		return nil, err
	}
	w, err := b.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultWriter{b: b, inner: w}, nil
}

// Append implements ooc.Backend.
func (b *Backend) Append(name string) (io.WriteCloser, error) {
	if err := b.fileOp(OpAppend); err != nil {
		return nil, err
	}
	w, err := b.inner.Append(name)
	if err != nil {
		return nil, err
	}
	return &faultWriter{b: b, inner: w}, nil
}

// Open implements ooc.Backend.
func (b *Backend) Open(name string) (io.ReadCloser, error) {
	if err := b.fileOp(OpOpen); err != nil {
		return nil, err
	}
	r, err := b.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultReader{b: b, inner: r}, nil
}

// Size implements ooc.Backend (never faulted: manifests and counters must
// stay trustworthy or every test assertion becomes ambiguous).
func (b *Backend) Size(name string) (int64, error) { return b.inner.Size(name) }

// Remove implements ooc.Backend.
func (b *Backend) Remove(name string) error {
	if err := b.fileOp(OpRemove); err != nil {
		return err
	}
	return b.inner.Remove(name)
}

// Rename implements ooc.Backend (never faulted: quarantining a corrupt file
// is the recovery path — breaking it would turn every detected corruption
// into an unrecoverable one, which is not an interesting scenario).
func (b *Backend) Rename(oldName, newName string) error {
	return b.inner.Rename(oldName, newName)
}

// List implements ooc.Backend.
func (b *Backend) List() ([]string, error) { return b.inner.List() }

// Sync implements ooc.Backend.
func (b *Backend) Sync(name string) error { return b.inner.Sync(name) }

type faultWriter struct {
	b     *Backend
	inner io.WriteCloser
	flips int64
	tears int64
}

func (w *faultWriter) Write(p []byte) (int, error) {
	r := w.b.inj.decide(w.b.rank, OpWrite, AnyClass)
	if r != nil {
		switch r.Action {
		case Slow, Delay:
			time.Sleep(r.Delay)
		case Error:
			return 0, injectedErr(w.b.rank, OpWrite)
		case Corrupt:
			// Persist the buffer with one deterministically-chosen bit
			// flipped; the caller's slice stays untouched and the write
			// reports success — silent medium corruption.
			if len(p) > 0 {
				w.flips++
				bad := append([]byte(nil), p...)
				i := w.b.inj.pick(len(bad)*8, uint64(w.b.rank), uint64(OpWrite), uint64(w.flips))
				bad[i/8] ^= 1 << (i % 8)
				n, err := w.inner.Write(bad)
				return n, err
			}
		case Truncate:
			// Persist only a prefix but report the full length — a torn
			// write. Callers that trust the return value lose the tail.
			if len(p) > 1 {
				w.tears++
				keep := 1 + w.b.inj.pick(len(p)-1, uint64(w.b.rank), uint64(OpWrite), uint64(w.tears), 7)
				if _, err := w.inner.Write(p[:keep]); err != nil {
					return 0, err
				}
				return len(p), nil
			}
		}
	}
	return w.inner.Write(p)
}

func (w *faultWriter) Close() error { return w.inner.Close() }

type faultReader struct {
	b     *Backend
	inner io.ReadCloser
	flips int64
}

func (r *faultReader) Read(p []byte) (int, error) {
	ru := r.b.inj.decide(r.b.rank, OpRead, AnyClass)
	if ru != nil {
		switch ru.Action {
		case Slow, Delay:
			time.Sleep(ru.Delay)
		case Error:
			return 0, injectedErr(r.b.rank, OpRead)
		case ShortRead:
			// Legal io.Reader behaviour: deliver a prefix. io.ReadFull
			// callers must loop; sloppy ones lose records.
			if len(p) > 1 {
				p = p[:1+len(p)/4]
			}
		case Corrupt:
			// Flip one deterministically-chosen bit of the bytes actually
			// delivered — a medium/controller error on the read path. Only
			// a checksum layer above can tell.
			n, err := r.inner.Read(p)
			if n > 0 {
				r.flips++
				i := r.b.inj.pick(n*8, uint64(r.b.rank), uint64(OpRead), uint64(r.flips))
				p[i/8] ^= 1 << (i % 8)
			}
			return n, err
		}
	}
	return r.inner.Read(p)
}

func (r *faultReader) Close() error { return r.inner.Close() }
