package graph

import (
	"fmt"
	"slices"
)

// Node is one vertex of a model DAG: a layer application with ordered
// parent inputs. Trainability is a property of the node, not the layer, so
// one frozen layer instance can be shared across models while another model
// fine-tunes its own trainable copy.
type Node struct {
	Name    string
	Layer   Layer
	Parents []*Node

	// Trainable marks the node's parameters for updates during training.
	// A node whose layer has no parameters is always effectively frozen
	// (Definition 2.3).
	Trainable bool

	index int // position in the owning model's Nodes(), set by AddNode
}

// Index is the node's position in its model's insertion (topological) order,
// m.Nodes()[n.Index()] == n (WithOutputs views too): the key of every per-node slice.
func (n *Node) Index() int { return n.index }

// Frozen reports whether the node's parameters are not updated during
// training (paper Definition 2.3): either it is explicitly non-trainable or
// it has no parameters at all.
func (n *Node) Frozen() bool { return !n.Trainable || len(n.Layer.Params()) == 0 }

// TrainableParams returns the parameters the node trains: none if it is
// frozen, a Block's inner model's TrainableParams (the inner nodes a
// spliced program seeds), else every parameter of its layer. It is the one
// trainability rule: Model.TrainableParams (what the optimizer updates),
// ParamCount, Summary and the profile's parameter table read it.
func (n *Node) TrainableParams() []*Param {
	if n.Frozen() {
		return nil
	}
	if b, ok := n.Layer.(Block); ok {
		return b.Inner().TrainableParams()
	}
	return n.Layer.Params()
}

// IsInput reports whether the node is a model input layer.
func (n *Node) IsInput() bool {
	_, ok := n.Layer.(*InputLayer)
	return ok
}

// Model is a DAG of layers (paper Definition 2.2) with designated outputs.
// Inputs are the nodes whose layer is an InputLayer.
type Model struct {
	Name    string
	nodes   []*Node
	byName  map[string]*Node
	Outputs []*Node
}

// NewModel returns an empty model with the given name.
func NewModel(name string) *Model {
	return &Model{Name: name, byName: map[string]*Node{}}
}

// AddNode appends a node applying layer to the given parents and returns
// it. Node names must be unique within the model and parents must already
// belong to it, which structurally guarantees acyclicity.
func (m *Model) AddNode(name string, layer Layer, parents ...*Node) *Node {
	if _, dup := m.byName[name]; dup {
		panic(fmt.Sprintf("graph: duplicate node name %q in model %q", name, m.Name))
	}
	for _, p := range parents {
		if p.index >= len(m.nodes) || m.nodes[p.index] != p {
			panic(fmt.Sprintf("graph: parent %q of node %q is not part of model %q", p.Name, name, m.Name))
		}
	}
	if _, isInput := layer.(*InputLayer); isInput && len(parents) != 0 {
		panic(fmt.Sprintf("graph: input node %q cannot have parents", name))
	}
	n := &Node{Name: name, Layer: layer, Parents: append([]*Node(nil), parents...), index: len(m.nodes)}
	m.nodes = append(m.nodes, n)
	m.byName[name] = n
	return n
}

// AddInput is shorthand for adding a dataset input node with the given
// per-record shape.
func (m *Model) AddInput(name string, shape ...int) *Node {
	return m.AddNode(name, NewInput(shape...))
}

// SetOutputs designates the model's output nodes (paper notation O).
func (m *Model) SetOutputs(outs ...*Node) {
	m.Outputs = append([]*Node(nil), outs...)
}

// Node returns the node with the given name, or nil.
func (m *Model) Node(name string) *Node { return m.byName[name] }

// Nodes returns all nodes in insertion order (which is a topological order
// by construction). The returned slice must not be modified.
func (m *Model) Nodes() []*Node { return m.nodes }

// Inputs returns the model's input nodes in insertion order.
func (m *Model) Inputs() []*Node {
	var ins []*Node
	for _, n := range m.nodes {
		if n.IsInput() {
			ins = append(ins, n)
		}
	}
	return ins
}

// NumNodes returns the node count.
func (m *Model) NumNodes() int { return len(m.nodes) }

// Validate checks structural invariants: at least one output, outputs and
// parents belong to the model, and shape inference succeeds end to end. It
// returns the inferred per-record output shapes, indexed by Node.Index().
func (m *Model) Validate() ([][]int, error) {
	if len(m.Outputs) == 0 {
		return nil, fmt.Errorf("graph: model %q has no outputs", m.Name)
	}
	for _, o := range m.Outputs {
		if m.byName[o.Name] != o {
			return nil, fmt.Errorf("graph: output %q is not part of model %q", o.Name, m.Name)
		}
	}
	shapes := make([][]int, len(m.nodes))
	for _, n := range m.nodes {
		in := make([][]int, len(n.Parents))
		for i, p := range n.Parents {
			// Only a hand-edited node can have a parent at or after itself.
			if p.index >= n.index || m.nodes[p.index] != p {
				return nil, fmt.Errorf("graph: node %q used before definition", p.Name)
			}
			in[i] = shapes[p.index]
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					panic(fmt.Sprintf("graph: shape inference failed at node %q (%s): %v", n.Name, n.Layer.Type(), r))
				}
			}()
			shapes[n.index] = n.Layer.OutShape(in)
		}()
	}
	return shapes, nil
}

// TrainableParams returns the parameters of all trainable nodes in a stable
// order (node insertion order, then layer parameter order). Shared layers
// contribute once.
func (m *Model) TrainableParams() []*Param {
	var out []*Param
	seen := map[*Param]bool{}
	for _, n := range m.nodes {
		for _, p := range n.TrainableParams() {
			if !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	return out
}

// AllParams returns every distinct parameter in the model.
func (m *Model) AllParams() []*Param {
	var out []*Param
	seen := map[*Param]bool{}
	for _, n := range m.nodes {
		for _, p := range n.Layer.Params() {
			if !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	return out
}

// ParamCount returns the total number of scalar parameters, and the number
// that are trainable: element sums over AllParams and TrainableParams.
func (m *Model) ParamCount() (total, trainable int64) {
	for _, p := range m.AllParams() {
		total += int64(p.NumElems())
	}
	for _, p := range m.TrainableParams() {
		trainable += int64(p.NumElems())
	}
	return total, trainable
}

// Reachable returns the nodes of m reachable from its outputs, in
// topological (insertion) order. Plans prune by dropping unreachable nodes.
func (m *Model) Reachable() []*Node {
	out := make([]*Node, 0, len(m.nodes))
	for i, keep := range m.MarkReachable(nil) {
		if keep {
			out = append(out, m.nodes[i])
		}
	}
	return out
}

// MarkReachable reports, by Node.Index(), which nodes the outputs reach.
// Insertion order is topological, so one reverse sweep marks every ancestor
// once, however many heads share a trunk. buf is reused if large enough.
func (m *Model) MarkReachable(buf []bool) []bool {
	keep := slices.Grow(buf[:0], len(m.nodes))[:len(m.nodes)]
	clear(keep)
	for _, o := range m.Outputs {
		keep[o.index] = true
	}
	for i := len(m.nodes) - 1; i >= 0; i-- {
		if keep[i] {
			for _, p := range m.nodes[i].Parents {
				keep[p.index] = true
			}
		}
	}
	return keep
}

// WithOutputs returns a shallow view of the model sharing its nodes but
// with different designated outputs. Forward on the view executes only the
// ancestors of the new outputs; the materializer uses this to compute
// chosen intermediate outputs without touching model heads.
func (m *Model) WithOutputs(outs ...*Node) *Model {
	v := &Model{Name: m.Name + "/view", nodes: m.nodes, byName: m.byName}
	v.SetOutputs(outs...)
	return v
}
