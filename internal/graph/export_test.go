package graph

// FeedKey returns the materialized-feed key for reuse-plan input nodes, or
// "" for ordinary nodes and dataset inputs.
func (n *Node) FeedKey() string {
	if in, ok := n.Layer.(*InputLayer); ok {
		return in.FeedKey
	}
	return ""
}

// Clone returns an independent copy of the parameter. If the source has been
// materialized the data is deep-copied; otherwise the lazy spec is copied,
// so the clone will initialize to the same values.
func (p *Param) Clone() *Param {
	c := &Param{Name: p.Name, Shape: append([]int(nil), p.Shape...), seed: p.seed, kind: p.kind, std: p.std, restored: p.restored, tag: p.tag, fn: p.fn}
	if d := p.data.Load(); d != nil {
		c.data.Store(d.Clone())
	}
	return c
}

// Nodes returns the node run at each position: a reachable node of the
// model or, for a spliced block, an inner node. The slice must not be
// modified.
func (p *Program) Nodes() []*Node { return p.nodes }

// Parents returns the positions of position i's parents. The slice must
// not be modified.
func (p *Program) Parents(i int) []int32 { return p.par[p.parOff[i]:p.parOff[i+1]] }

// Liveness returns the step table, by position. It must not be modified.
func (p *Program) Liveness() *Liveness { return &p.live }
