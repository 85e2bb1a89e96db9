// Package mmg builds the multi-model graph (paper Definition 4.4 and
// Section 4.1): the merged DAG of all candidate models in a model-selection
// workload, obtained by hash-consing identical materializable
// sub-expressions. The materialization optimizer reasons over this graph so
// a layer shared by many candidates is considered (and materialized) once.
package mmg

import (
	"fmt"

	"nautilus/internal/graph"
	"nautilus/internal/profile"
)

// MultiModel is the merged graph plus the mapping from each source model's
// nodes to merged nodes.
type MultiModel struct {
	Graph  *graph.Model
	Models []*graph.Model
	// NodeOf maps (source model, source node) to the merged node.
	NodeOf map[*graph.Model]map[*graph.Node]*graph.Node
	// SourcesOf lists, for every merged node, the (model, node) pairs that
	// merged into it.
	SourcesOf map[*graph.Node][]SourceRef
	// Sig is the expression signature of every merged node.
	Sig map[*graph.Node]graph.Signature
}

// SourceRef identifies one source-model node merged into a multi-model
// node.
type SourceRef struct {
	Model *graph.Model
	Node  *graph.Node
}

// Build merges bare models into a multi-model graph. Materializable nodes
// with identical expression signatures collapse into one merged node
// (sharing the first source's layer instance); all other nodes are copied
// per model. The merged model's outputs are the concatenation of the source
// models' outputs. Nobody has vouched for bare models, so the merged graph
// is validated; callers that hold the models' profiles use BuildProfiled.
func Build(models ...*graph.Model) (*MultiModel, error) {
	mm, _, err := merge(models, nil)
	if err != nil {
		return nil, err
	}
	if _, err := mm.Graph.Validate(); err != nil {
		return nil, fmt.Errorf("mmg: merged graph invalid: %w", err)
	}
	return mm, nil
}

// BuildProfiled merges profiled models and derives the merged graph's
// profile in the same pass. Merging changes no per-node fact: a shared node
// is materializable — frozen with frozen ancestors, so never on the
// gradient path — and a per-model copy keeps its layer, its Trainable flag
// and (mapped) parents, so every merged node's signature, shape, FLOPs,
// training multiplier and sizes are those of its first source node. Only
// c_load is recomputed, from the first profile's hardware. Nothing is
// re-hashed, re-inferred or re-validated: the members' profiles already
// vouch for their models, and verify.Groups validates every merged graph a
// plan actually emits.
func BuildProfiled(profs ...*profile.ModelProfile) (*MultiModel, *profile.ModelProfile, error) {
	models := make([]*graph.Model, len(profs))
	for i, p := range profs {
		if p == nil || p.Model == nil {
			return nil, nil, fmt.Errorf("mmg: model %d has no profile", i)
		}
		models[i] = p.Model
	}
	return merge(models, profs)
}

// merge is the one merge loop. profs is nil for bare models (signatures and
// materializability are computed here, no profile is derived) or parallel
// to models.
func merge(models []*graph.Model, profs []*profile.ModelProfile) (*MultiModel, *profile.ModelProfile, error) {
	if len(models) == 0 {
		return nil, nil, fmt.Errorf("mmg: no models")
	}
	total := 0
	for _, m := range models {
		total += m.NumNodes()
	}
	merged := graph.NewModel(multiName(models))
	mm := &MultiModel{
		Graph:     merged,
		Models:    append([]*graph.Model(nil), models...),
		NodeOf:    make(map[*graph.Model]map[*graph.Node]*graph.Node, len(models)),
		SourcesOf: make(map[*graph.Node][]SourceRef, total),
		Sig:       make(map[*graph.Node]graph.Signature, total),
	}
	var prof *profile.ModelProfile
	var layers []profile.LayerProfile // backing store of prof.Layers; never grows past total
	if profs != nil {
		prof = &profile.ModelProfile{
			Model:  merged,
			Layers: make(map[*graph.Node]*profile.LayerProfile, total),
			Shapes: make(map[*graph.Node][]int, total),
			Sigs:   mm.Sig,
			HW:     profs[0].HW,
		}
		layers = make([]profile.LayerProfile, 0, total)
	}
	bySig := map[graph.Signature]*graph.Node{}

	var outs []*graph.Node
	for i, m := range models {
		var sigs map[*graph.Node]graph.Signature
		var mat map[*graph.Node]bool
		if profs != nil {
			sigs = profs[i].Sigs
		} else {
			sigs = m.ExprSignatures()
			mat = m.Materializable()
		}
		nodeOf := make(map[*graph.Node]*graph.Node, m.NumNodes())
		mm.NodeOf[m] = nodeOf
		for _, n := range m.Nodes() {
			sig := sigs[n]
			var lp *profile.LayerProfile // the source node's facts; nil for bare models
			var isMat bool
			if profs == nil {
				isMat = mat[n]
			} else if lp = profs[i].Layers[n]; lp != nil {
				isMat = lp.Materializable
			} else {
				return nil, nil, fmt.Errorf("mmg: profile of model %q has no entry for node %q", m.Name, n.Name)
			}
			if isMat {
				if existing := bySig[sig]; existing != nil {
					nodeOf[n] = existing
					mm.SourcesOf[existing] = append(mm.SourcesOf[existing], SourceRef{Model: m, Node: n})
					continue
				}
			}
			parents := make([]*graph.Node, len(n.Parents))
			for j, p := range n.Parents {
				parents[j] = nodeOf[p]
				if parents[j] == nil {
					return nil, nil, fmt.Errorf("mmg: model %q node %q used before definition", m.Name, p.Name)
				}
			}
			name := mergedName(m, n, isMat, sig)
			if merged.Node(name) != nil {
				// Distinct expressions colliding on a name can only happen
				// for non-materializable twins across same-named models;
				// disambiguate once, and refuse a third twin.
				name = fmt.Sprintf("%s@%s", name, m.Name)
				if merged.Node(name) != nil {
					return nil, nil, fmt.Errorf("mmg: model name %q is used by more than two models", m.Name)
				}
			}
			nn := merged.AddNode(name, n.Layer, parents...)
			nn.Trainable = n.Trainable
			nodeOf[n] = nn
			mm.SourcesOf[nn] = append(mm.SourcesOf[nn], SourceRef{Model: m, Node: n})
			mm.Sig[nn] = sig
			if isMat {
				bySig[sig] = nn
			}
			if lp != nil {
				layers = append(layers, *lp)
				mlp := &layers[len(layers)-1]
				mlp.Node = nn
				mlp.LoadFLOPs = prof.HW.LoadFLOPs(mlp.OutBytes)
				prof.Layers[nn] = mlp
				prof.Shapes[nn] = mlp.OutShape
			}
		}
		for _, o := range m.Outputs {
			outs = append(outs, nodeOf[o])
		}
	}
	merged.SetOutputs(outs...)
	return mm, prof, nil
}

// OutputsOf returns the merged nodes corresponding to one source model's
// outputs.
func (mm *MultiModel) OutputsOf(m *graph.Model) []*graph.Node {
	outs := make([]*graph.Node, len(m.Outputs))
	for i, o := range m.Outputs {
		outs[i] = mm.NodeOf[m][o]
	}
	return outs
}

// MaterializableNodes returns the merged graph's materializable non-input
// nodes — the candidate set U the materialization optimizer chooses from.
func (mm *MultiModel) MaterializableNodes() []*graph.Node {
	mat := mm.Graph.Materializable()
	var out []*graph.Node
	for _, n := range mm.Graph.Nodes() {
		if mat[n] && !n.IsInput() {
			out = append(out, n)
		}
	}
	return out
}

// SharedCount returns how many source nodes merged into n.
func (mm *MultiModel) SharedCount(n *graph.Node) int { return len(mm.SourcesOf[n]) }

func multiName(models []*graph.Model) string {
	if len(models) == 1 {
		return "mmg:" + models[0].Name
	}
	return fmt.Sprintf("mmg:%s+%d", models[0].Name, len(models)-1)
}

// mergedName names a merged node: materializable nodes get signature-based
// stable names (shared across models); others are qualified by model.
func mergedName(m *graph.Model, n *graph.Node, materializable bool, sig graph.Signature) string {
	if materializable {
		return "shared/" + sig.String()
	}
	return m.Name + "/" + n.Name
}
