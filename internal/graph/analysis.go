package graph

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"

	"nautilus/internal/tensor"
)

// Materializable computes, for every node in the model, whether it is
// materializable per paper Definition 2.4: it is a model input layer, or it
// is frozen and all of its parents are materializable. Materializable nodes
// are exactly those whose outputs never change during training and thus
// cause redundant computation when recomputed. The result is indexed by
// Node.Index().
func (m *Model) Materializable() []bool {
	mat := make([]bool, len(m.nodes))
	for i, n := range m.nodes {
		if n.IsInput() {
			mat[i] = true
			continue
		}
		v := n.Frozen()
		for _, p := range n.Parents {
			if !mat[p.index] {
				v = false
				break
			}
		}
		mat[i] = v
	}
	return mat
}

// Signature is a 64-bit identity hash. Layer signatures implement the layer
// identity test of Definition 4.3 (same type, same configuration, same
// parameter values); expression signatures extend it recursively over the
// input DAG so two nodes with equal expression signatures compute identical
// functions of the dataset inputs.
type Signature uint64

// String renders the signature as fixed-width hex, used as a stable key for
// materialized artifacts on disk.
func (s Signature) String() string {
	var b [32]byte
	copy(b[:16], "0000000000000000")
	h := strconv.AppendUint(b[16:16], uint64(s), 16)
	return string(b[len(h) : 16+len(h)]) // zero padding, then the digits
}

// LayerSignature hashes a node's layer identity: type, canonicalized
// config, and the fingerprints of its parameters. Trainability is included
// because a trainable node's output evolves during training even when its
// initial parameters match a frozen twin.
func LayerSignature(n *Node) Signature {
	h := fnv.New64a()
	h.Write([]byte(n.Layer.Type()))
	h.Write([]byte{0})
	h.Write(canonicalConfig(n.Layer.Config()))
	var buf [8]byte
	if n.Frozen() {
		buf[0] = 1
	}
	h.Write(buf[:1])
	for _, p := range n.Layer.Params() {
		binary.LittleEndian.PutUint64(buf[:], p.Fingerprint())
		h.Write(buf[:])
	}
	return Signature(h.Sum64())
}

// ExprSignatures computes the expression signature (Definition 4.1–4.3) of
// every node: a recursive hash over the node's layer signature and the
// expression signatures of its ordered parents. Dataset input nodes hash
// their shape and feed key, so the same logical input matches across
// models. The result is indexed by Node.Index().
func (m *Model) ExprSignatures() []Signature {
	sigs := make([]Signature, len(m.nodes))
	for i, n := range m.nodes {
		h := fnv.New64a()
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(LayerSignature(n)))
		h.Write(buf[:])
		for _, p := range n.Parents {
			binary.LittleEndian.PutUint64(buf[:], uint64(sigs[p.index]))
			h.Write(buf[:])
		}
		sigs[i] = Signature(h.Sum64())
	}
	return sigs
}

// canonicalConfig serializes a config map with sorted keys so hashing is
// order-independent.
func canonicalConfig(cfg map[string]any) []byte {
	keys := make([]string, 0, len(cfg))
	for k := range cfg {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []byte
	for _, k := range keys {
		out = append(out, k...)
		out = append(out, '=')
		b, err := json.Marshal(cfg[k])
		if err != nil {
			panic(fmt.Sprintf("graph: config value %q not serializable: %v", k, err))
		}
		out = append(out, b...)
		out = append(out, ';')
	}
	return out
}

// ActivationBytesPerRecord returns the bytes of intermediate output a node
// produces for one record: the layer's own report if it implements
// ActivationSizer (composite layers), else the output tensor size. This is
// the paper's s_mem(l).
func ActivationBytesPerRecord(n *Node, inShapes [][]int) int64 {
	if sizer, ok := n.Layer.(ActivationSizer); ok {
		return sizer.ActivationBytesPerRecord(inShapes)
	}
	return int64(tensor.NumElems(n.Layer.OutShape(inShapes))) * 4
}
