package opt

import (
	"encoding/binary"
	"fmt"
	"math"

	"nautilus/internal/graph"
	"nautilus/internal/profile"
)

// view is a graph as the planner prices it: index arrays over profiles, no
// graph.Model, no names, no copied LayerProfile. wrap views one profile's own
// graph; scratch.merge views the graph mmg.BuildProfiled would build from its
// members, node i of the view being merged node i.
type view struct {
	profs  []*profile.ModelProfile // the members; the first one's hardware is the view's
	layer  []*profile.LayerProfile // by view node: its first source node's facts
	member []int32                 // by view node: the member that source node is in
	parOff []int32                 // view node i's parents are par[parOff[i]:parOff[i+1]]
	par    []int32
	outs   []int32
	// A parameter's dedupe key is its id in a wrapped view, its number in a
	// merged one, where trains says whether any member trains it.
	nums    []*numbered // by member; empty in a wrapped view
	nparams int
	trains  []bool
}

func (v *view) reset() {
	v.profs, v.nums, v.layer, v.member = v.profs[:0], v.nums[:0], v.layer[:0], v.member[:0]
	v.parOff, v.par, v.outs = append(v.parOff[:0], 0), v.par[:0], v.outs[:0]
}

// push appends the view node whose parents were just appended to v.par.
func (v *view) push(lp *profile.LayerProfile, member int) int32 {
	v.layer = append(v.layer, lp)
	v.member = append(v.member, int32(member))
	v.parOff = append(v.parOff, int32(len(v.par)))
	return int32(len(v.layer) - 1)
}

// wrap makes v the view of prof's own graph.
func (v *view) wrap(prof *profile.ModelProfile) *view {
	v.reset()
	v.profs, v.nparams = append(v.profs, prof), prof.NumParams()
	for i := range prof.Layers {
		lp := &prof.Layers[i]
		for _, p := range lp.Node.Parents {
			v.par = append(v.par, int32(p.Index()))
		}
		v.push(lp, 0)
	}
	for _, o := range prof.Model.Outputs {
		v.outs = append(v.outs, int32(o.Index()))
	}
	return v
}

func (v *view) parents(i int) []int32 { return v.par[v.parOff[i]:v.parOff[i+1]] }

// load is node i's c_load at the view's hardware.
func (v *view) load(i int) int64 {
	lp, hw := v.layer[i], v.profs[0].HW
	if v.profs[v.member[i]].HW == hw {
		return lp.LoadFLOPs
	}
	return hw.LoadFLOPs(lp.OutBytes)
}

// param returns parameter id of node i's member: its dedupe key, its entry
// and whether the view's graph trains it.
func (v *view) param(i int, id int32) (int32, *profile.ParamProfile, bool) {
	k := v.member[i]
	q := v.profs[k].Param(id)
	if len(v.nums) == 0 {
		return id, q, q.Trainable
	}
	key := v.nums[k].param[id]
	return key, q, v.trains[key]
}

// markReachable reports, by view node, which nodes the outputs reach.
func (v *view) markReachable(buf []bool) []bool {
	keep := resize(buf, len(v.layer))
	clear(keep)
	for _, o := range v.outs {
		keep[o] = true
	}
	for i := len(keep) - 1; i >= 0; i-- {
		if keep[i] {
			for _, p := range v.parents(i) {
				keep[p] = true
			}
		}
	}
	return keep
}

// numbering numbers the materializable expressions and the parameters of a
// set of profiles once, so a merged view over any subset of them finds shared
// nodes and parameters by array index. classify sorts the profiles into
// structural classes on top: profiles of one class price alike wherever
// either stands in a trial, so MAT OPT and FUSE OPT price one per class.
type numbering struct {
	of            map[*profile.ModelProfile]*numbered
	exprs, params int
}

type numbered struct {
	expr   []int32 // by node: 1 + expression number if materializable, else 0
	param  []int32 // by parameter id: parameter number
	trains []int32 // the parameter numbers the profile trains
	// class is 1 + the profile's structural class once classified, -1 for
	// a profile without a model, which no class vouches for.
	class int32
}

func number(items []WorkItem) *numbering {
	nb := &numbering{of: make(map[*profile.ModelProfile]*numbered, len(items))}
	exprs := map[graph.Signature]int32{}
	params := map[*graph.Param]int32{}
	for _, it := range items {
		p := it.Prof
		if p == nil || nb.of[p] != nil {
			continue
		}
		x := &numbered{expr: make([]int32, len(p.Layers)), param: make([]int32, p.NumParams())}
		for i := range p.Layers {
			if lp := &p.Layers[i]; lp.Materializable {
				x.expr[i] = 1 + intern(exprs, lp.Sig)
			}
		}
		for id := range x.param {
			q := p.Param(int32(id))
			x.param[id] = intern(params, q.Param)
			if q.Trainable {
				x.trains = append(x.trains, x.param[id])
			}
		}
		nb.of[p] = x
	}
	nb.exprs, nb.params = len(exprs), len(params)
	return nb
}

// classify gives every numbered profile its structural class, once, for
// plans that may load the signatures in loadable (V for FUSE OPT, U for MAT
// OPT): profiles get one class when their classKeys are equal.
func (nb *numbering) classify(items []WorkItem, loadable map[graph.Signature]bool) {
	// A parameter two items hold is shared: a trial dedupes it across
	// members by its number. Any other parameter meets only its own item.
	uses := make([]int32, nb.params)
	for _, it := range items {
		if x := nb.of[it.Prof]; x != nil {
			for _, num := range x.param {
				uses[num]++
			}
		}
	}
	classes := map[string]int32{}
	var key []byte
	for _, it := range items {
		p := it.Prof
		x := nb.of[p]
		if x == nil || x.class != 0 {
			continue // no profile, or classed already
		}
		if p.Model == nil {
			x.class = -1
			continue
		}
		key = classKey(key[:0], p, x, uses, loadable)
		c, ok := classes[string(key)]
		if !ok {
			c = int32(len(classes)) + 1
			classes[string(key)] = c
		}
		x.class = c
	}
}

// classKey appends to b every fact of p that pricing it in a trial reads:
// the hardware (c_load at the view's hardware, the workspace), the graph's
// shape (parents, outputs), and per node its flags, its signature where it
// decides the merge or V ∩ node (a materializable or loadable node), c_comp,
// c_load, s_disk and s_mem, and its parameters — a shared one by number, a
// private one by its id in p — with their bytes and p's trainable flag. Two
// profiles with equal keys swap in any trial without changing its merged
// view's priced facts, nor a MAT OPT plan's cost.
func classKey(b []byte, p *profile.ModelProfile, x *numbered, uses []int32, loadable map[graph.Signature]bool) []byte {
	hw := p.HW
	b = binary.AppendUvarint(b, math.Float64bits(hw.FLOPSThroughput))
	b = binary.AppendUvarint(b, math.Float64bits(hw.DiskThroughput))
	b = binary.AppendVarint(b, hw.WorkspaceBytes)
	b = binary.AppendVarint(b, int64(hw.Workers))
	b = binary.AppendVarint(b, int64(p.Model.NumNodes()))
	b = binary.AppendVarint(b, int64(len(p.Layers)))
	b = binary.AppendVarint(b, int64(len(p.Model.Outputs)))
	for _, o := range p.Model.Outputs {
		b = binary.AppendVarint(b, int64(o.Index()))
	}
	for i := range p.Layers {
		lp := &p.Layers[i]
		var flags uint64
		if lp.Node.IsInput() {
			flags |= 1
		}
		if lp.Materializable {
			flags |= 2
		}
		if lp.Node.Trainable {
			flags |= 4
		}
		sig := lp.Materializable || loadable[lp.Sig]
		if sig {
			flags |= 8
		}
		b = binary.AppendUvarint(b, flags)
		if sig {
			b = binary.AppendUvarint(b, uint64(lp.Sig))
		}
		b = binary.AppendVarint(b, lp.CompFLOPs)
		b = binary.AppendVarint(b, lp.LoadFLOPs)
		b = binary.AppendVarint(b, lp.OutBytes)
		b = binary.AppendVarint(b, lp.MemBytes)
		b = binary.AppendVarint(b, int64(len(lp.Node.Parents)))
		for _, par := range lp.Node.Parents {
			b = binary.AppendVarint(b, int64(par.Index()))
		}
		b = binary.AppendVarint(b, int64(len(lp.Params)))
		for _, id := range lp.Params {
			q, num, ident := p.Param(id), x.param[id], uint64(id)
			var pflags uint64
			if q.Trainable {
				pflags |= 1
			}
			if uses[num] > 1 {
				pflags |= 2
				ident = uint64(num)
			}
			b = binary.AppendUvarint(b, pflags)
			b = binary.AppendUvarint(b, ident)
			b = binary.AppendVarint(b, q.Bytes)
		}
	}
	return b
}

// intern returns k's number in m, numbering it next if it has none.
func intern[K comparable](m map[K]int32, k K) int32 {
	id, ok := m[k]
	if !ok {
		id = int32(len(m))
		m[k] = id
	}
	return id
}

// merge makes sc.view the merged graph of the items' profiles as mmg.merge
// builds it: a materializable node whose expression an earlier view node
// holds is that node; every other node is appended, its parents mapped.
func (sc *scratch) merge(nb *numbering, items []WorkItem) (*view, error) {
	if len(items) == 0 {
		return nil, fmt.Errorf("opt: no models")
	}
	v := &sc.view
	v.reset()
	v.nparams, v.trains = nb.params, resize(v.trains, nb.params)
	clear(v.trains)
	sc.first = resize(sc.first, nb.exprs)
	clear(sc.first)
	for k, it := range items {
		p := it.Prof
		x := nb.of[p]
		if x == nil || p.Model == nil {
			return nil, fmt.Errorf("opt: work item %d has no profile", k)
		} else if len(p.Layers) != p.Model.NumNodes() {
			return nil, fmt.Errorf("opt: profile of model %q covers %d of its %d nodes", p.Model.Name, len(p.Layers), p.Model.NumNodes())
		}
		v.profs, v.nums = append(v.profs, p), append(v.nums, x)
		for _, key := range x.trains {
			v.trains[key] = true
		}
		sc.nodeOf = resize(sc.nodeOf, len(p.Layers))
		for j := range p.Layers {
			lp := &p.Layers[j]
			e := x.expr[j]
			if e > 0 && sc.first[e-1] > 0 {
				sc.nodeOf[j] = sc.first[e-1] - 1
				continue
			}
			for _, par := range lp.Node.Parents {
				if par.Index() >= j {
					return nil, fmt.Errorf("opt: model %q node %q used before definition", p.Model.Name, par.Name)
				}
				v.par = append(v.par, sc.nodeOf[par.Index()])
			}
			sc.nodeOf[j] = v.push(lp, k)
			if e > 0 {
				sc.first[e-1] = sc.nodeOf[j] + 1
			}
		}
		for _, o := range p.Model.Outputs {
			v.outs = append(v.outs, sc.nodeOf[o.Index()])
		}
	}
	return v, nil
}
