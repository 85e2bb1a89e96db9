package storage

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"nautilus/internal/tensor"
)

func TestSwapWords(t *testing.T) {
	in := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}
	b := append([]byte(nil), in...)
	swapWords(b)
	if want := []byte{4, 3, 2, 1, 8, 7, 6, 5, 9}; !bytes.Equal(b, want) {
		t.Errorf("swapWords = %v, want %v (a trailing partial word is left alone)", b, want)
	}
	swapWords(b)
	if !bytes.Equal(b, in) {
		t.Errorf("swapping twice = %v, want the input %v", b, in)
	}
}

// The codec's other-order branch, run by flipping the host flag: encoding
// writes a swapped copy and leaves the floats alone, and a read swaps the
// words back, so values round-trip.
func TestCodecSwapsOnOtherByteOrder(t *testing.T) {
	defer func(le bool) { littleEndianHost = le }(littleEndianHost)
	littleEndianHost = !littleEndianHost
	v := []float32{1, -2.5, float32(math.Inf(1))}
	raw := append([]byte(nil), floatBytes(v)...)
	enc := encodeFloats(v)
	want := append([]byte(nil), raw...)
	swapWords(want)
	if !bytes.Equal(enc, want) || !bytes.Equal(floatBytes(v), raw) {
		t.Fatalf("encodeFloats = % x (floats now % x), want the swapped copy % x of % x", enc, floatBytes(v), want, raw)
	}
	got := make([]float32, len(v))
	if err := readFloats(bytes.NewReader(enc), got, 0); err != nil {
		t.Fatal(err)
	}
	if sameBits(got, v) >= 0 {
		t.Errorf("readFloats = %v, want %v", got, v)
	}
}

// specialBits are float32 values whose bits a codec could disturb: signed
// zero, the infinities, a quiet NaN with a payload, a signalling NaN, a
// subnormal and the largest finite value.
var specialBits = []uint32{
	0x80000000, // -0
	0x7f800000, // +Inf
	0xff800000, // -Inf
	0x7fc0000c, // NaN(0x7fc0000c)
	0x7f800001, // signalling NaN
	0x00000003, // subnormal
	math.Float32bits(math.MaxFloat32),
}

// fillSpecials sets v[i] to specialBits[(i+shift) % len] and returns the
// little-endian bytes a file must hold for v.
func fillSpecials(v []float32, shift int) []byte {
	var want []byte
	for i := range v {
		w := specialBits[(i+shift)%len(specialBits)]
		v[i] = math.Float32frombits(w)
		want = binary.LittleEndian.AppendUint32(want, w)
	}
	return want
}

// sameBits reports the first index where got's bits differ from want's, or -1.
func sameBits(got, want []float32) int {
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return i
		}
	}
	return -1
}

// The store's on-disk format, pinned bit for bit: the bytes after the
// header are each float's bits as a little-endian word, and a read, cold or
// from the cache, returns those bits.
func TestTensorStoreFormatBits(t *testing.T) {
	s, _ := newStore(t)
	s.EnableCache(1 << 20)
	recs := tensor.New(3, len(specialBits))
	var want []byte
	for r := 0; r < 3; r++ {
		want = append(want, fillSpecials(recs.Row(r), r)...)
	}
	w := len(specialBits)
	if err := s.Append("k", tensor.FromSlice(recs.Data()[:w], 1, w)); err != nil {
		t.Fatal(err)
	}
	if err := s.Append("k", tensor.FromSlice(recs.Data()[w:], 2, w)); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(s.Dir(), "k.nts"))
	if err != nil {
		t.Fatal(err)
	}
	if got := raw[headerSize(1):]; !bytes.Equal(got, want) {
		t.Fatalf("file data = % x\nwant        % x", got, want)
	}
	for _, pass := range []string{"cold", "cached"} {
		got, err := s.ReadRowsIn("k", []int{2, 0, 1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range []int{2, 0, 1} {
			if j := sameBits(got.Row(i), recs.Row(r)); j >= 0 {
				t.Errorf("%s read of row %d: element %d = %#x, want %#x", pass, r, j, math.Float32bits(got.Row(i)[j]), math.Float32bits(recs.Row(r)[j]))
			}
		}
	}
}

// The checkpoint format, pinned bit for bit: each parameter blob is its
// floats' bits as little-endian words, and LoadParamsInto restores them.
func TestCheckpointFormatBits(t *testing.T) {
	m := buildTestModel()
	wantBlob := map[string][]byte{}
	for i, n := range m.Nodes() {
		for j, p := range n.Layer.Params() {
			wantBlob[n.Name+"/"+p.Name] = fillSpecials(p.Tensor().Data(), i+j)
		}
	}
	path := filepath.Join(t.TempDir(), "m.ckpt")
	if err := SaveModel(path, m, CheckpointOptions{}, nil); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	hlen := int64(binary.LittleEndian.Uint64(raw[4:]))
	var hdr checkpointHeader
	if err := json.Unmarshal(raw[12:12+hlen], &hdr); err != nil {
		t.Fatal(err)
	}
	base := 12 + hlen
	if len(hdr.Params) != len(wantBlob) {
		t.Fatalf("checkpoint lists %d params, model has %d", len(hdr.Params), len(wantBlob))
	}
	for _, e := range hdr.Params {
		want := wantBlob[e.Node+"/"+e.Param]
		if got := raw[base+e.Offset : base+e.Offset+int64(len(want))]; !bytes.Equal(got, want) {
			t.Errorf("%s/%s blob = % x\nwant % x", e.Node, e.Param, got, want)
		}
	}
	restored := buildTestModel()
	if err := LoadParamsInto(path, restored, nil); err != nil {
		t.Fatal(err)
	}
	if k := diffBits(paramBits(restored), paramBits(m)); k != "" {
		t.Errorf("restored bits differ at %s", k)
	}
}
