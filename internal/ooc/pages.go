package ooc

import (
	"sync"
	"sync/atomic"
)

// Page lifecycle. Every page buffer a stream uses — a Reader's window, a
// Writer's page, the prefetcher's read-ahead pages, the pages queued for
// write-behind, the verifying backend's frame buffers — is taken from one
// pool when the stream needs it and given back when the stream is done with
// it: on Close, on stop, on the error paths, and by whichever goroutine
// consumed a page handed across a channel. A build that opens a file per
// node then recycles a handful of pages instead of allocating several per
// file. The pool is a sync.Pool: idle pages are released by the garbage
// collector, so it needs no size setting.

// pageSlack is the room a pooled page has past PageSize: enough for the
// verifier's frame header, and for the record a Writer appends across the
// page boundary before it flushes (a Writer flushes once its page holds at
// least PageSize bytes, so the page's last record ends past it).
const pageSlack = 4 << 10

// pageCap is the capacity of every pooled page.
const pageCap = PageSize + pageSlack

var (
	pagePool = sync.Pool{New: func() any { return new([pageCap]byte) }}
	// pagesOut counts pages taken and not yet given back.
	pagesOut atomic.Int64
	// poisonPages, when set, overwrites every page given back, so a stream
	// that still reads or writes a page after returning it sees garbage
	// rather than plausible stale bytes. Tests switch it on (SetPagePoison).
	poisonPages atomic.Bool
)

// poisonByte fills a poisoned page.
const poisonByte = 0xDB

// getPage takes a page from the pool: length pageCap, contents undefined.
func getPage() []byte {
	pagesOut.Add(1)
	return pagePool.Get().(*[pageCap]byte)[:]
}

// putPage gives back a page taken with getPage. p may be any reslice that
// starts at the page's first byte. A Writer page that an oversized record
// outgrew (append moved it) is released to the garbage collector instead of
// the pool, but is still counted as given back.
func putPage(p []byte) {
	pagesOut.Add(-1)
	p = p[:cap(p)]
	if poisonPages.Load() {
		for i := range p {
			p[i] = poisonByte
		}
	}
	if len(p) == pageCap {
		pagePool.Put((*[pageCap]byte)(p))
	}
}

// SetPagePoison switches page poisoning on or off and returns the previous
// setting. With it on, every page given back to the pool is overwritten
// before it can be reused, so a use after return corrupts what the stream
// reads or writes and fails the caller's checks. It is a test switch; off,
// it costs one atomic load per returned page.
func SetPagePoison(on bool) bool { return poisonPages.Swap(on) }

// PagesInUse returns the number of pooled pages taken and not yet given
// back, over every store in the process. When no stream is open it is back
// where it started; tests compare it before and after.
func PagesInUse() int64 { return pagesOut.Load() }
