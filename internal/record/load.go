package record

import (
	"bufio"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync"
)

// v1ChunkRecords is how many legacy fixed-width records ReadBinary reads
// and decodes at a time.
const v1ChunkRecords = 4096

// readBinary is ReadBinary appending to d, whose Records may have been
// presized.
func readBinary(d *Dataset, r io.Reader) (*Dataset, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	rb := d.Schema.RecordBytes()
	if head, err := br.Peek(len(V2Magic)); err == nil && string(head) == V2Magic {
		next, err := v2Blocks(br, rb)
		if err != nil {
			return nil, err
		}
		return loadBlocks(d, true, next)
	}
	return loadBlocks(d, false, func(c *chunk) (bool, error) {
		if cap(c.payload) < v1ChunkRecords*rb {
			c.payload = make([]byte, v1ChunkRecords*rb)
		}
		n, err := io.ReadFull(br, c.payload[:v1ChunkRecords*rb])
		c.payload = c.payload[:n]
		switch {
		case err == nil || (err == io.ErrUnexpectedEOF && n%rb == 0):
			return true, nil
		case err == io.EOF:
			return false, nil
		default:
			return false, fmt.Errorf("record: reading binary dataset: %w", err)
		}
	})
}

// A chunk is one block of whole records on its way from the file into
// Dataset.Records.
type chunk struct {
	block   int
	start   int      // index in Dataset.Records of its first row
	rows    []Record // Dataset.Records[start:start+n]
	payload []byte   // one of loadBlocks' reused buffers
	hdr     [V2BlockHeaderSize]byte
}

// loadBlocks appends every block that next reads to d.Records. next fills
// c.payload with block c.block (and c.hdr with a v2 block's header) and
// reports false at the clean end of the stream.
//
// Blocks are read in file order on the calling goroutine, into a fixed set
// of reused payload buffers, and each is given its range of d.Records as
// soon as it is read. One of GOMAXPROCS workers then verifies its checksum
// (v2), refuses it if a row lies outside the schema, and only then decodes
// its rows straight into that range. When the range does not fit d.Records'
// capacity, the reader first waits for every block in flight, since
// workers write into the slice it is about to move.
//
// The error returned is that of the lowest-numbered block that failed, read
// error or worker error, so it is the one a front-to-back reader would
// return whatever the worker count and timing.
func loadBlocks(d *Dataset, v2 bool, next func(c *chunk) (bool, error)) (*Dataset, error) {
	s := d.Schema
	rb := s.RecordBytes()
	workers := runtime.GOMAXPROCS(0)
	// Two buffers per worker let the reader fill the next block while every
	// worker has one queued behind the one it decodes.
	free := make(chan *chunk, 2*workers)
	for range cap(free) {
		free <- new(chunk)
	}
	var (
		mu     sync.Mutex
		bad    = -1 // lowest block a worker refused
		badErr error
		wg     sync.WaitGroup
		work   = make(chan *chunk)
	)
	failed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return bad >= 0
	}
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range work {
				if err := c.decode(s, v2); err != nil {
					mu.Lock()
					if bad < 0 || c.block < bad {
						bad, badErr = c.block, err
					}
					mu.Unlock()
				}
				free <- c
			}
		}()
	}
	var readErr error
	for block := 0; !failed(); block++ {
		c := <-free
		c.block = block
		ok, err := next(c)
		if !ok || err != nil {
			readErr = err
			break
		}
		n, at := len(c.payload)/rb, len(d.Records)
		if at+n > cap(d.Records) {
			held := make([]*chunk, 0, cap(free)-1)
			for range cap(free) - 1 {
				held = append(held, <-free)
			}
			d.Records = slices.Grow(d.Records, n)
			for _, h := range held {
				free <- h
			}
		}
		d.Records = d.Records[:at+n]
		c.start, c.rows = at, d.Records[at:at+n]
		work <- c
	}
	close(work)
	wg.Wait()
	// Every block a worker saw precedes the one the reader stopped at.
	if badErr != nil {
		return nil, badErr
	}
	if readErr != nil {
		return nil, readErr
	}
	return d, nil
}

// decode checks block c and decodes its rows into c.rows: a v2 block's
// checksum first, then the schema, so no row of a block is decoded unless
// the whole block is intact and valid. A row outside the schema is named
// by its index in the file, with Validate's reason.
func (c *chunk) decode(s *Schema, v2 bool) error {
	if v2 {
		if err := VerifyV2Block(c.hdr[:], c.payload); err != nil {
			return fmt.Errorf("record: v2 block %d: %w", c.block, err)
		}
	}
	rb := s.RecordBytes()
	if i := FirstInvalid(s, c.payload); i < len(c.rows) {
		var r Record
		// A whole row always decodes.
		_, _ = r.Decode(s, c.payload[i*rb:])
		return fmt.Errorf("record: row %d: %w", c.start+i, r.Validate(s))
	}
	decodeBlock(s, c.rows, c.payload, rb)
	return nil
}
