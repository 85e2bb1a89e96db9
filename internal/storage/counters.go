// Package storage implements Nautilus's on-disk artifact stores: a columnar
// tensor store for materialized intermediate layer outputs (supporting the
// incremental appends of Section 4.2.3) and a model checkpoint store
// (architecture + weights, optionally trainable-only as the Nautilus
// trainer writes). All stores meter their I/O so experiments can report
// cumulative disk reads/writes (Figure 11).
package storage

import "sync/atomic"

// Counters meters byte-level disk traffic. Stores sharing one Counters
// instance aggregate into a single account.
type Counters struct {
	bytesRead    atomic.Int64
	bytesWritten atomic.Int64
	reads        atomic.Int64
	writes       atomic.Int64
}

// AddRead records a read of n bytes.
func (c *Counters) AddRead(n int64) {
	if c == nil {
		return
	}
	c.bytesRead.Add(n)
	c.reads.Add(1)
}

// AddWrite records a write of n bytes.
func (c *Counters) AddWrite(n int64) {
	if c == nil {
		return
	}
	c.bytesWritten.Add(n)
	c.writes.Add(1)
}

// BytesRead returns cumulative bytes read.
func (c *Counters) BytesRead() int64 { return c.bytesRead.Load() }

// BytesWritten returns cumulative bytes written.
func (c *Counters) BytesWritten() int64 { return c.bytesWritten.Load() }

// Reads returns the number of read operations.
func (c *Counters) Reads() int64 { return c.reads.Load() }

// Writes returns the number of write operations.
func (c *Counters) Writes() int64 { return c.writes.Load() }

// Merge accumulates o's totals into c. Either side may be nil.
func (c *Counters) Merge(o *Counters) {
	if c == nil || o == nil {
		return
	}
	c.bytesRead.Add(o.bytesRead.Load())
	c.bytesWritten.Add(o.bytesWritten.Load())
	c.reads.Add(o.reads.Load())
	c.writes.Add(o.writes.Load())
}
