// Package mmg builds the multi-model graph (paper Definition 4.4 and
// Section 4.1): the merged DAG of all candidate models in a model-selection
// workload, obtained by hash-consing identical materializable
// sub-expressions. The materialization optimizer reasons over this graph so
// a layer shared by many candidates is considered (and materialized) once.
package mmg

import (
	"fmt"
	"slices"

	"nautilus/internal/graph"
	"nautilus/internal/profile"
)

// MultiModel is the merged graph plus the mapping from each source model's
// nodes to merged nodes. Its per-node tables are slices: the merged graph's
// by merged Node.Index(), each source model's by that model's.
type MultiModel struct {
	Graph  *graph.Model
	Models []*graph.Model

	nodeOf  [][]*graph.Node   // [model position][source node index] → merged node
	sources [][]SourceRef     // [merged node index] → the nodes merged into it
	sigs    []graph.Signature // [merged node index] → expression signature
}

// NodeOf returns the merged node that node n of source model m became, or
// nil if m is not one of the merged models.
func (mm *MultiModel) NodeOf(m *graph.Model, n *graph.Node) *graph.Node {
	if i := slices.Index(mm.Models, m); i >= 0 {
		return mm.nodeOf[i][n.Index()]
	}
	return nil
}

// SourcesOf lists the (model, node) pairs that merged into merged node n,
// first source first.
func (mm *MultiModel) SourcesOf(n *graph.Node) []SourceRef { return mm.sources[n.Index()] }

// Sig returns the expression signature of merged node n.
func (mm *MultiModel) Sig(n *graph.Node) graph.Signature { return mm.sigs[n.Index()] }

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
	merged := graph.NewModel(multiName(models))
	mm := &MultiModel{Graph: merged, Models: append([]*graph.Model(nil), models...), nodeOf: make([][]*graph.Node, len(models))}
	var derive *profile.Deriver
	if profs != nil {
		derive = profile.NewDeriver(merged, profs[0], models[0].NumNodes())
	}
	bySig := map[graph.Signature]*graph.Node{}

	var outs, parents []*graph.Node
	for i, m := range models {
		var sigs []graph.Signature
		var mat []bool
		if profs == nil {
			sigs = m.ExprSignatures()
			mat = m.Materializable()
		} else if len(profs[i].Layers) != m.NumNodes() {
			return nil, nil, fmt.Errorf("mmg: profile of model %q covers %d of its %d nodes", m.Name, len(profs[i].Layers), m.NumNodes())
		}
		nodeOf := make([]*graph.Node, m.NumNodes())
		mm.nodeOf[i] = nodeOf
		for j, n := range m.Nodes() {
			var lp *profile.LayerProfile // the source node's facts; nil for bare models
			var sig graph.Signature
			var isMat bool
			if profs == nil {
				sig, isMat = sigs[j], mat[j]
			} else {
				lp = &profs[i].Layers[j]
				sig, isMat = lp.Sig, lp.Materializable
			}
			if isMat {
				if existing := bySig[sig]; existing != nil {
					nodeOf[j] = existing
					mm.sources[existing.Index()] = append(mm.sources[existing.Index()], SourceRef{Model: m, Node: n})
					continue
				}
			}
			parents = parents[:0] // AddNode copies it
			for _, p := range n.Parents {
				if p.Index() >= j {
					return nil, nil, fmt.Errorf("mmg: model %q node %q used before definition", m.Name, p.Name)
				}
				parents = append(parents, nodeOf[p.Index()])
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
			nodeOf[j] = nn
			mm.sources = append(mm.sources, []SourceRef{{Model: m, Node: n}})
			mm.sigs = append(mm.sigs, sig)
			if isMat {
				bySig[sig] = nn
			}
			if lp != nil {
				derive.Add(nn, profs[i], lp)
			}
		}
		for _, o := range m.Outputs {
			outs = append(outs, nodeOf[o.Index()])
		}
	}
	merged.SetOutputs(outs...)
	if derive == nil {
		return mm, nil, nil
	}
	return mm, derive.Profile(), nil
}

// MaterializableNodes returns the merged graph's materializable non-input
// nodes — the candidate set U the materialization optimizer chooses from.
func (mm *MultiModel) MaterializableNodes() []*graph.Node {
	mat := mm.Graph.Materializable()
	var out []*graph.Node
	for i, n := range mm.Graph.Nodes() {
		if mat[i] && !n.IsInput() {
			out = append(out, n)
		}
	}
	return out
}

// SharedCount returns how many source nodes merged into n.
func (mm *MultiModel) SharedCount(n *graph.Node) int { return len(mm.sources[n.Index()]) }

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
