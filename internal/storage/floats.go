package storage

import (
	"encoding/binary"
	"io"
	"unsafe"
)

// The package's one float codec. Store rows and checkpoint blobs hold
// float32s as little-endian words, which is how a little-endian host keeps
// them in memory, so rows and parameters move between memory and files as
// raw bytes with no per-element loop. A big-endian host swaps each word.

// littleEndianHost reports whether the host's memory order is the files'.
var littleEndianHost = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// floatBytes views v's memory as its 4·len(v) bytes. The view aliases v.
func floatBytes(v []float32) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 4*len(v))
}

// encodeFloats returns v's little-endian encoding: v's own bytes on a
// little-endian host, a swapped copy elsewhere. Callers only write it out.
func encodeFloats(v []float32) []byte {
	b := floatBytes(v)
	if littleEndianHost {
		return b
	}
	c := append([]byte(nil), b...)
	swapWords(c)
	return c
}

// readFloats fills dst with the len(dst) little-endian floats at off,
// reading them straight into dst's memory.
func readFloats(r io.ReaderAt, dst []float32, off int64) error {
	b := floatBytes(dst)
	if _, err := r.ReadAt(b, off); err != nil {
		return err
	}
	if !littleEndianHost {
		swapWords(b)
	}
	return nil
}

// swapWords reverses the byte order of every 4-byte word of b in place.
func swapWords(b []byte) {
	for i := 0; i+4 <= len(b); i += 4 {
		b[i], b[i+1], b[i+2], b[i+3] = b[i+3], b[i+2], b[i+1], b[i]
	}
}
