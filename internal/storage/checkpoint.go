package storage

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"

	"nautilus/internal/graph"
	"nautilus/internal/tensor"
)

// checkpointMagic identifies checkpoint files.
const checkpointMagic = "NCKP"

// archNode is the serialized form of one model node.
type archNode struct {
	Name      string         `json:"name"`
	Type      string         `json:"type"`
	Config    map[string]any `json:"config"`
	Parents   []string       `json:"parents,omitempty"`
	Trainable bool           `json:"trainable,omitempty"`
}

// paramEntry locates one parameter blob inside the checkpoint.
type paramEntry struct {
	Node   string `json:"node"`
	Param  string `json:"param"`
	Shape  []int  `json:"shape"`
	Offset int64  `json:"offset"`
}

// checkpointHeader is the JSON header of a checkpoint file. The
// architecture (Nodes, Outputs) documents the file; restores rebuild the
// model from code and read only Params.
type checkpointHeader struct {
	Model   string       `json:"model"`
	Nodes   []archNode   `json:"nodes"`
	Outputs []string     `json:"outputs"`
	Params  []paramEntry `json:"params"`
	// TrainableOnly marks checkpoints that store only trainable weights.
	TrainableOnly bool `json:"trainable_only,omitempty"`
}

// CheckpointOptions controls what SaveModel writes.
type CheckpointOptions struct {
	// TrainableOnly stores only the trainable parameters. Nautilus
	// checkpoints optimized plan models this way — frozen parameters are
	// reproducible from the hub and need no repeated writes (the disk-write
	// saving reported in Figure 11).
	TrainableOnly bool
}

// SaveModel writes the model architecture and weights to path. counters may
// be nil.
func SaveModel(path string, m *graph.Model, opts CheckpointOptions, counters *Counters) error {
	hdr := checkpointHeader{Model: m.Name, TrainableOnly: opts.TrainableOnly}
	for _, o := range m.Outputs {
		hdr.Outputs = append(hdr.Outputs, o.Name)
	}

	trainSet := map[*graph.Param]bool{}
	for _, p := range m.TrainableParams() {
		trainSet[p] = true
	}

	type blob struct {
		entry paramEntry
		data  *tensor.Tensor
	}
	var blobs []blob
	var offset int64
	for _, n := range m.Nodes() {
		an := archNode{Name: n.Name, Type: n.Layer.Type(), Config: n.Layer.Config(), Trainable: n.Trainable}
		for _, p := range n.Parents {
			an.Parents = append(an.Parents, p.Name)
		}
		hdr.Nodes = append(hdr.Nodes, an)
		for _, p := range n.Layer.Params() {
			if opts.TrainableOnly && !trainSet[p] {
				continue
			}
			e := paramEntry{Node: n.Name, Param: p.Name, Shape: p.Shape, Offset: offset}
			blobs = append(blobs, blob{entry: e, data: p.Tensor()})
			offset += p.Bytes()
			hdr.Params = append(hdr.Params, e)
		}
	}

	hb, err := json.Marshal(hdr)
	if err != nil {
		return fmt.Errorf("storage: marshal checkpoint header: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("storage: create checkpoint: %w", err)
	}
	defer f.Close()

	pre := make([]byte, 12)
	copy(pre, checkpointMagic)
	binary.LittleEndian.PutUint64(pre[4:], uint64(len(hb)))
	if _, err := f.Write(pre); err != nil {
		return err
	}
	if _, err := f.Write(hb); err != nil {
		return err
	}
	var written int64 = int64(len(pre) + len(hb))
	for _, b := range blobs {
		buf := encodeFloats(b.data.Data())
		if _, err := f.Write(buf); err != nil {
			return err
		}
		written += int64(len(buf))
	}
	counters.AddWrite(written)
	return nil
}

// readCheckpoint parses path into its header, the byte offset where
// parameter data begins, and the file size. Every length it reads from the
// file is checked against the file size before it sizes an allocation.
func readCheckpoint(path string) (hdr *checkpointHeader, f *os.File, base, size int64, err error) {
	f, err = os.Open(path)
	if err != nil {
		return nil, nil, 0, 0, fmt.Errorf("storage: open checkpoint: %w", err)
	}
	defer func() {
		if err != nil {
			_ = f.Close() // read-side close on the error path
		}
	}()
	st, err := f.Stat()
	if err != nil {
		return nil, nil, 0, 0, fmt.Errorf("storage: stat checkpoint %s: %w", path, err)
	}
	size = st.Size()
	pre := make([]byte, 12)
	if size < int64(len(pre)) {
		return nil, nil, 0, 0, fmt.Errorf("storage: checkpoint %s: %d bytes is shorter than its %d-byte prefix", path, size, len(pre))
	}
	if _, err := f.ReadAt(pre, 0); err != nil {
		return nil, nil, 0, 0, fmt.Errorf("storage: read checkpoint %s: %w", path, err)
	}
	if string(pre[:4]) != checkpointMagic {
		return nil, nil, 0, 0, fmt.Errorf("storage: %s is not a checkpoint", path)
	}
	hlen := binary.LittleEndian.Uint64(pre[4:])
	if hlen > uint64(size-12) {
		return nil, nil, 0, 0, fmt.Errorf("storage: checkpoint %s: header length %d exceeds the %d bytes after the prefix", path, hlen, size-12)
	}
	hb := make([]byte, hlen)
	if _, err := f.ReadAt(hb, 12); err != nil {
		return nil, nil, 0, 0, fmt.Errorf("storage: read checkpoint %s header: %w", path, err)
	}
	hdr = &checkpointHeader{}
	if err := json.Unmarshal(hb, hdr); err != nil {
		return nil, nil, 0, 0, fmt.Errorf("storage: parse checkpoint %s header: %w", path, err)
	}
	return hdr, f, 12 + int64(hlen), size, nil
}

// LoadParamsInto restores the parameters recorded in the checkpoint into an
// existing model with matching node and parameter names: a restore rebuilds
// the model from code and loads its weights, full and trainable-only
// checkpoints alike. A corrupt or foreign file is an error and leaves the
// model untouched when the header is at fault.
func LoadParamsInto(path string, m *graph.Model, counters *Counters) error {
	hdr, f, base, size, err := readCheckpoint(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := loadParams(hdr, f, base, size, m, counters); err != nil {
		return fmt.Errorf("storage: checkpoint %s: %w", path, err)
	}
	return nil
}

// loadParams validates every entry of hdr against m and the file size, then
// reads and installs the blobs.
func loadParams(hdr *checkpointHeader, f *os.File, base, size int64, m *graph.Model, counters *Counters) error {
	byName := map[string]*graph.Param{}
	for _, n := range m.Nodes() {
		for _, p := range n.Layer.Params() {
			byName[n.Name+"\x00"+p.Name] = p
		}
	}
	params := make([]*graph.Param, len(hdr.Params))
	seen := make(map[string]bool, len(hdr.Params))
	for i, e := range hdr.Params {
		key := e.Node + "\x00" + e.Param
		p := byName[key]
		if p == nil {
			return fmt.Errorf("param %s/%s not present in model", e.Node, e.Param)
		}
		if seen[key] {
			return fmt.Errorf("param %s/%s listed twice", e.Node, e.Param)
		}
		seen[key] = true
		if !tensor.ShapeEq(e.Shape, p.Shape) {
			return fmt.Errorf("param %s/%s: checkpoint shape %v, model shape %v", e.Node, e.Param, e.Shape, p.Shape)
		}
		if e.Offset < 0 || e.Offset > size-base-p.Bytes() {
			return fmt.Errorf("param %s/%s: %d bytes at data offset %d overrun the %d data bytes", e.Node, e.Param, p.Bytes(), e.Offset, size-base)
		}
		params[i] = p
	}
	var read int64
	for i, e := range hdr.Params {
		p := params[i]
		t := tensor.New(p.Shape...)
		if err := readFloats(f, t.Data(), base+e.Offset); err != nil {
			return fmt.Errorf("read param %s/%s: %w", e.Node, e.Param, err)
		}
		p.SetData(t)
		read += p.Bytes()
	}
	counters.AddRead(read)
	return nil
}

// CheckpointSizeBytes estimates a model's checkpoint size without writing
// it: header estimate plus parameter bytes (all params, or trainable only).
func CheckpointSizeBytes(m *graph.Model, opts CheckpointOptions) int64 {
	var total int64 = 4096 // header estimate
	if opts.TrainableOnly {
		for _, p := range m.TrainableParams() {
			total += p.Bytes()
		}
		return total
	}
	for _, p := range m.AllParams() {
		total += p.Bytes()
	}
	return total
}
