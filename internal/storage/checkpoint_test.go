package storage

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nautilus/internal/graph"
	"nautilus/internal/layers"
	"nautilus/internal/tensor"
)

// buildTestModel builds a small frozen-trunk + trainable-head model.
func buildTestModel() *graph.Model {
	m := graph.NewModel("ckpt-test")
	in := m.AddInput("in", 4)
	d1 := m.AddNode("d1", layers.NewDense(4, 6, layers.ActTanh, 11), in)
	d2 := m.AddNode("d2", layers.NewDense(6, 3, layers.ActNone, 12), d1)
	d2.Trainable = true
	m.SetOutputs(d2)
	return m
}

// buildCompositeModel builds a transformer block under a trainable head.
func buildCompositeModel() *graph.Model {
	m := graph.NewModel("composite")
	in := m.AddInput("ids", 4, 8)
	blk := m.AddNode("blk", layers.NewTransformerBlock(layers.TransformerBlockConfig{
		Seq: 4, Dim: 8, Heads: 2, FFN: 16, Seed: 5,
	}), in)
	head := m.AddNode("head", layers.NewDense(8, 2, layers.ActNone, 6), blk)
	head.Trainable = true
	m.SetOutputs(head)
	return m
}

// perturb overwrites every parameter of m with values its seeded
// initializer does not produce, so a restore shows in every element.
func perturb(m *graph.Model, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for _, p := range m.AllParams() {
		d := p.Tensor().Data()
		for i := range d {
			d[i] = rng.Float32()*2 - 1
		}
	}
}

// paramBits returns the float bits of every parameter of m keyed by
// node/param, the names a checkpoint entry carries. Shared layers appear
// under each node that holds them.
func paramBits(m *graph.Model) map[string][]uint32 {
	out := map[string][]uint32{}
	for _, n := range m.Nodes() {
		for _, p := range n.Layer.Params() {
			d := p.Tensor().Data()
			bits := make([]uint32, len(d))
			for i, v := range d {
				bits[i] = math.Float32bits(v)
			}
			out[n.Name+"/"+p.Name] = bits
		}
	}
	return out
}

// diffBits names the first key whose bits differ between got and want.
func diffBits(got, want map[string][]uint32) string {
	if len(got) != len(want) {
		return "param sets differ"
	}
	for k, w := range want {
		g := got[k]
		if len(g) != len(w) {
			return k
		}
		for i := range w {
			if g[i] != w[i] {
				return k
			}
		}
	}
	return ""
}

// saveBytes writes m as a checkpoint and returns the file's bytes.
func saveBytes(t testing.TB, m *graph.Model, opts CheckpointOptions) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "model.nckp")
	if err := SaveModel(path, m, opts, nil); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// forwardBits runs m on x and returns the output's float bits.
func forwardBits(t *testing.T, m *graph.Model, feed string, x *tensor.Tensor) []uint32 {
	t.Helper()
	tape, err := m.Forward(map[string]*tensor.Tensor{feed: x}, false)
	if err != nil {
		t.Fatal(err)
	}
	d := tape.Output(m.Outputs[0]).Data()
	bits := make([]uint32, len(d))
	for i, v := range d {
		bits[i] = math.Float32bits(v)
	}
	return bits
}

// roundTrip saves a perturbed model built by build, restores the file into
// a second build, and checks that every saved param comes back bit-exactly
// and the restored model computes the same outputs on x.
func roundTrip(t *testing.T, build func() *graph.Model, feed string, x *tensor.Tensor) {
	t.Helper()
	m := build()
	perturb(m, 1)
	path := filepath.Join(t.TempDir(), "model.nckp")
	counters := &Counters{}
	if err := SaveModel(path, m, CheckpointOptions{}, counters); err != nil {
		t.Fatal(err)
	}
	if counters.BytesWritten() == 0 {
		t.Error("checkpoint write not metered")
	}
	restored := build()
	if err := LoadParamsInto(path, restored, counters); err != nil {
		t.Fatal(err)
	}
	var paramBytes int64
	for _, p := range restored.AllParams() {
		paramBytes += p.Bytes()
	}
	if counters.BytesRead() != paramBytes {
		t.Errorf("restore read %d bytes, want the %d parameter bytes", counters.BytesRead(), paramBytes)
	}
	if k := diffBits(paramBits(restored), paramBits(m)); k != "" {
		t.Errorf("restored param %s differs from the saved one", k)
	}
	want, got := forwardBits(t, m, feed, x), forwardBits(t, restored, feed, x)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("restored model output %d = %#x, want %#x", i, got[i], want[i])
		}
	}
}

// A restore rebuilds the model from code and loads the checkpoint into it.
func TestCheckpointFullRoundTrip(t *testing.T) {
	roundTrip(t, buildTestModel, "in", tensor.FromSlice([]float32{1, -1, 0.5, 2}, 1, 4))
}

// Composite layers restore through the same path: a transformer block's
// inner params are the block's Params, named as the checkpoint lists them.
func TestCheckpointCompositeModelRoundTrip(t *testing.T) {
	roundTrip(t, buildCompositeModel, "ids", tensor.RandNormal(rand.New(rand.NewSource(3)), 1, 2, 4, 8))
}

// A trainable-only checkpoint restores the trainable params bit-exactly and
// leaves the frozen ones at their seeded values.
func TestCheckpointTrainableOnly(t *testing.T) {
	m := buildTestModel()
	perturb(m, 2)
	path := filepath.Join(t.TempDir(), "trainable.nckp")
	if err := SaveModel(path, m, CheckpointOptions{TrainableOnly: true}, nil); err != nil {
		t.Fatal(err)
	}
	fresh := buildTestModel()
	want := paramBits(fresh)
	saved := paramBits(m)
	for _, n := range m.Nodes() {
		if n.Trainable {
			for _, p := range n.Layer.Params() {
				want[n.Name+"/"+p.Name] = saved[n.Name+"/"+p.Name]
			}
		}
	}
	if err := LoadParamsInto(path, fresh, nil); err != nil {
		t.Fatal(err)
	}
	if k := diffBits(paramBits(fresh), want); k != "" {
		t.Errorf("param %s after a trainable-only restore differs", k)
	}
}

func TestCheckpointSizeEstimates(t *testing.T) {
	m := buildTestModel()
	full := CheckpointSizeBytes(m, CheckpointOptions{})
	trainOnly := CheckpointSizeBytes(m, CheckpointOptions{TrainableOnly: true})
	if trainOnly >= full {
		t.Errorf("trainable-only size %d should be < full %d", trainOnly, full)
	}
	// d2: 6*3+3 params = 21 floats = 84 bytes + header.
	if trainOnly != 4096+84 {
		t.Errorf("trainable-only = %d, want %d", trainOnly, 4096+84)
	}
}

// withHeaderLen returns raw with its 8-byte header length replaced.
func withHeaderLen(raw []byte, hlen uint64) []byte {
	out := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint64(out[4:], hlen)
	return out
}

// withHeader returns raw with its JSON header rewritten by edit and the
// parameter data kept as is.
func withHeader(t testing.TB, raw []byte, edit func(*checkpointHeader)) []byte {
	t.Helper()
	hlen := binary.LittleEndian.Uint64(raw[4:])
	var hdr checkpointHeader
	if err := json.Unmarshal(raw[12:12+hlen], &hdr); err != nil {
		t.Fatal(err)
	}
	edit(&hdr)
	hb, err := json.Marshal(hdr)
	if err != nil {
		t.Fatal(err)
	}
	out := withHeaderLen(raw[:12], uint64(len(hb)))
	out = append(out, hb...)
	return append(out, raw[12+hlen:]...)
}

// corruptCheckpoint is a corrupt or foreign file and text its error must
// carry.
type corruptCheckpoint struct {
	name    string
	raw     []byte
	errText string
}

// corruptCheckpoints derives corrupt and foreign files from a valid full
// checkpoint of buildTestModel.
func corruptCheckpoints(t testing.TB) []corruptCheckpoint {
	raw := saveBytes(t, buildTestModel(), CheckpointOptions{})
	hlen := binary.LittleEndian.Uint64(raw[4:])
	// param returns the header entry of d2/w for edit.
	param := func(h *checkpointHeader) *paramEntry {
		for i := range h.Params {
			if h.Params[i].Node == "d2" && h.Params[i].Param == "w" {
				return &h.Params[i]
			}
		}
		t.Fatal("no d2/w entry")
		return nil
	}
	return []corruptCheckpoint{
		{"empty", nil, "prefix"},
		{"garbage", []byte("not a checkpoint at all"), "not a checkpoint"},
		{"truncated prefix", raw[:8], "prefix"},
		{"truncated header", raw[:12+hlen/2], "header length"},
		{"huge header length", withHeaderLen(raw, 1<<62), "header length"},
		{"max header length", withHeaderLen(raw, math.MaxUint64), "header length"},
		{"bad magic", append([]byte("XCKP"), raw[4:]...), "not a checkpoint"},
		{"bad header json", withHeaderLen(raw, hlen-1), "parse checkpoint"},
		{"shape mismatch", withHeader(t, raw, func(h *checkpointHeader) { param(h).Shape = []int{3, 6} }), "d2/w: checkpoint shape"},
		{"negative dimension", withHeader(t, raw, func(h *checkpointHeader) { param(h).Shape = []int{-6, 3} }), "d2/w: checkpoint shape"},
		{"offset past EOF", withHeader(t, raw, func(h *checkpointHeader) { param(h).Offset = 1 << 40 }), "d2/w: 72 bytes"},
		{"negative offset", withHeader(t, raw, func(h *checkpointHeader) { param(h).Offset = -4 }), "d2/w: 72 bytes"},
		{"truncated data", raw[:len(raw)-4], "overrun"},
		{"unknown param", withHeader(t, raw, func(h *checkpointHeader) { param(h).Node = "nope" }), "nope/w not present"},
		{"duplicate entry", withHeader(t, raw, func(h *checkpointHeader) { h.Params = append(h.Params, *param(h)) }), "d2/w listed twice"},
	}
}

// Loading a model's weights (LoadParamsInto) from a corrupt or foreign file
// is an error naming what is wrong, and leaves the model untouched. The
// huge-length, negative-dimension and shape-mismatch files used to panic.
func TestLoadModelRejectsGarbage(t *testing.T) {
	for _, c := range corruptCheckpoints(t) {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "bad.nckp")
			if err := os.WriteFile(path, c.raw, 0o644); err != nil {
				t.Fatal(err)
			}
			m := buildTestModel()
			before := paramBits(m)
			err := LoadParamsInto(path, m, nil)
			if err == nil || !strings.Contains(err.Error(), c.errText) {
				t.Fatalf("LoadParamsInto = %v, want an error containing %q", err, c.errText)
			}
			if k := diffBits(paramBits(m), before); k != "" {
				t.Errorf("failed restore modified param %s", k)
			}
		})
	}
}

// FuzzLoadParamsInto feeds arbitrary bytes to the checkpoint reader. The
// property: an error that leaves the model untouched, or every param the
// header lists restored bit-exactly from the file's bytes. Never a panic.
// The committed corpus (testdata/fuzz/FuzzLoadParamsInto) holds a full and
// a trainable-only checkpoint of buildTestModel plus the corrupt files of
// TestLoadModelRejectsGarbage; plain go test replays it.
func FuzzLoadParamsInto(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.nckp")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		m := buildTestModel()
		before := paramBits(m)
		if err := LoadParamsInto(path, m, nil); err != nil {
			if k := diffBits(paramBits(m), before); k != "" {
				t.Errorf("failed restore (%v) modified param %s", err, k)
			}
			return
		}
		hdr, file, base, _, err := readCheckpoint(path)
		if err != nil {
			t.Fatalf("restore succeeded but the header does not re-read: %v", err)
		}
		_ = file.Close() // read-only
		got := paramBits(m)
		for _, e := range hdr.Params {
			bits := got[e.Node+"/"+e.Param]
			at := base + e.Offset
			for i, b := range bits {
				if want := binary.LittleEndian.Uint32(raw[at+int64(4*i):]); b != want {
					t.Fatalf("param %s/%s element %d = %#x, file holds %#x", e.Node, e.Param, i, b, want)
				}
			}
		}
	})
}
