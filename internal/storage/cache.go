package storage

import (
	"container/list"
	"sync"
)

// rowCache is an LRU cache of materialized rows, standing in for the OS
// page cache the paper's Materializer relies on ("if there is excess DRAM
// available, we rely on the OS disk cache", Section 3). With it, repeated
// epoch reads of materialized features hit DRAM and only cold rows count
// as physical disk reads — the same accounting the cost-clock simulator
// uses.
type rowCache struct {
	mu       sync.Mutex
	maxBytes int64
	used     int64
	ll       *list.List // front = most recent
	items    map[rowKey]*list.Element

	hits, misses int64
}

type rowKey struct {
	key string
	row int
}

type rowEntry struct {
	k    rowKey
	data []float32
}

func newRowCache(maxBytes int64) *rowCache {
	return &rowCache{maxBytes: maxBytes, ll: list.New(), items: map[rowKey]*list.Element{}}
}

// getInto copies the cached row into dst and moves it to the front; false
// (a miss) leaves dst alone.
func (c *rowCache) getInto(key string, row int, dst []float32) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[rowKey{key, row}]
	if !ok {
		c.misses++
		return false
	}
	c.hits++
	c.ll.MoveToFront(el)
	copy(dst, el.Value.(*rowEntry).data)
	return true
}

// putCopy admits a copy of src as the row's most recent entry, evicting
// least-recently-used rows until it fits. The last row evicted lends the
// new one its list element, entry and slice, so a full cache of rows of
// one size admits rows without allocating. The cache never keeps src.
func (c *rowCache) putCopy(key string, row int, src []float32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := rowKey{key, row}
	bytes := int64(len(src)) * 4
	el, ok := c.items[k]
	if ok {
		c.used -= int64(len(el.Value.(*rowEntry).data)) * 4
		c.ll.MoveToFront(el)
	} else {
		if bytes > c.maxBytes {
			return // row larger than the whole cache
		}
		var victim *list.Element
		for back := c.ll.Back(); back != nil && c.used+bytes > c.maxBytes; back = back.Prev() {
			if victim != nil {
				c.ll.Remove(victim)
			}
			victim = back
			e := back.Value.(*rowEntry)
			delete(c.items, e.k)
			c.used -= int64(len(e.data)) * 4
		}
		if victim != nil {
			el = victim
			c.ll.MoveToFront(el)
		} else {
			el = c.ll.PushFront(&rowEntry{})
		}
		c.items[k] = el
	}
	e := el.Value.(*rowEntry)
	e.k = k
	e.data = append(e.data[:0], src...)
	c.used += bytes
}

// invalidate drops every cached row of a key (after GC deletes it).
func (c *rowCache) invalidate(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		e := el.Value.(*rowEntry)
		if e.k.key == key {
			c.ll.Remove(el)
			delete(c.items, e.k)
			c.used -= int64(len(e.data)) * 4
		}
		el = next
	}
}

// stats returns hit/miss counts.
func (c *rowCache) stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
