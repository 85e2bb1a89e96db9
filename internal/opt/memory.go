package opt

// MemoryEstimate breaks down the analytical peak-memory estimate of
// training a (possibly fused) reuse-plan model (Section 4.3.3).
type MemoryEstimate struct {
	ParamBytes     int64 // parameter tensors of retained nodes
	OptimizerBytes int64 // optimizer slot state for trainable params
	WorkspaceBytes int64 // DL-framework workspace (configured)
	ActivationPeak int64 // live-tensor peak × batch size
}

// Total returns the total estimated peak memory.
func (m MemoryEstimate) Total() int64 {
	return m.ParamBytes + m.OptimizerBytes + m.WorkspaceBytes + m.ActivationPeak
}

// AdamSlotBytes is the optimizer-state overhead per trainable parameter
// byte under Adam (first and second moments) — the one optimizer the
// trainer runs, so the planner's B_mem estimate and the trainer's
// live-memory replay agree on it.
const AdamSlotBytes = 2

// EstimatePeakMemory performs the topological live-tensor analysis of
// Figure 5 on a reuse plan: the plan's retained forward nodes are augmented
// with a loss barrier node and one backward node per layer on the gradient
// path; a topological traversal tracks which output tensors are live and
// returns the peak, plus parameter/optimizer/workspace terms.
//
// optBytesPerTrainableByte is the optimizer's slot overhead per trainable
// parameter byte (AdamSlotBytes on every training path).
func EstimatePeakMemory(plan *Plan, batch int, optBytesPerTrainableByte int64) MemoryEstimate {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	return sc.peakMemory(sc.view.wrap(plan.Prof), plan.Actions, batch, optBytesPerTrainableByte)
}

// peakMemory replays actions, a plan over v.
func (sc *scratch) peakMemory(v *view, actions []Action, batch int, optBytesPerTrainableByte int64) MemoryEstimate {
	n := len(v.layer)

	// The augmented graph (Figure 5B) is traversed in one topological order:
	// retained forward nodes in graph order (positions 0..F-1), the loss
	// node (F), backward nodes in reverse forward order. Every step makes
	// one tensor, identified by its position.
	sc.reach = v.markReachable(sc.reach)
	sc.fpos, sc.bpos = resize(sc.fpos, n), resize(sc.bpos, n)
	F := int32(0)
	for i := range v.layer {
		sc.fpos[i] = -1
		if sc.reach[i] && actions[i] != Pruned {
			sc.fpos[i] = F
			F++
		}
	}

	// Parameters of computed nodes, each once however many nodes hold it.
	est := MemoryEstimate{WorkspaceBytes: v.profs[0].HW.WorkspaceBytes}
	sc.seenParam = resize(sc.seenParam, v.nparams)
	clear(sc.seenParam)
	for i, lp := range v.layer {
		if sc.fpos[i] < 0 || actions[i] != Computed {
			continue
		}
		for _, id := range lp.Params {
			key, p, trains := v.param(i, id)
			if sc.seenParam[key] {
				continue
			}
			sc.seenParam[key] = true
			est.ParamBytes += p.Bytes
			if trains {
				est.OptimizerBytes += p.Bytes * optBytesPerTrainableByte
			}
		}
	}

	// needGrad: gradient flows into the node (it or an ancestor trains). A
	// computed node that trains or must propagate grads has a backward node.
	sc.needGrad = resize(sc.needGrad, n)
	for i, lp := range v.layer {
		sc.bpos[i] = -1
		sc.needGrad[i] = false
		if sc.fpos[i] < 0 {
			continue
		}
		computed := actions[i] == Computed
		trains := computed && lp.Node.Trainable && len(lp.Params) > 0 // !Frozen()
		fromParent := false
		for _, p := range v.parents(i) {
			fromParent = fromParent || sc.needGrad[p]
		}
		sc.needGrad[i] = trains || fromParent
		if computed && (trains || fromParent) {
			sc.bpos[i] = 0 // has a backward node; positioned below
		}
	}
	steps := F + 1
	for i := n - 1; i >= 0; i-- {
		if sc.bpos[i] == 0 {
			sc.bpos[i] = steps
			steps++
		}
	}

	// A step's tensor (s_mem; the loss: nothing) lives to its last consumer.
	sc.size, sc.release = resize(sc.size, int(steps)), resize(sc.release, int(steps))
	sc.lastUse = resize(sc.lastUse, int(steps))
	for s := range sc.lastUse {
		sc.lastUse[s] = int32(s)
		sc.size[s], sc.release[s] = 0, 0
	}
	use := func(tensor, at int32) {
		if at > sc.lastUse[tensor] {
			sc.lastUse[tensor] = at
		}
	}
	sc.isOut = resize(sc.isOut, n)
	clear(sc.isOut)
	for _, o := range v.outs {
		sc.isOut[o] = true
	}
	for i, lp := range v.layer {
		f, b := sc.fpos[i], sc.bpos[i]
		if f < 0 {
			continue
		}
		sc.size[f] = lp.MemBytes
		if sc.isOut[i] {
			use(f, F) // output → loss
		}
		if actions[i] != Computed {
			continue
		}
		if b >= 0 {
			sc.size[b] = lp.MemBytes
			use(f, b) // (l_i, l'_i): backward needs the forward output
		}
		for _, pi := range v.parents(i) {
			pf := sc.fpos[pi]
			if pf < 0 {
				continue // an illegal plan (verify.Plan, BuildGroup): no tensor to hold
			}
			use(pf, f) // parent output consumed by the child's forward
			if b >= 0 {
				use(pf, b) // (l_p, l'_i): backward needs the forward inputs
				if pb := sc.bpos[pi]; pb >= 0 {
					use(b, pb) // (l'_s, l'_i): a child's gradient feeds the parent's backward
				}
			}
		}
	}
	// The loss node's edges into backward nodes are not replayed: its
	// tensor is a scalar (size 0), however long it lives.

	// Sweep: allocate at production, free after last use.
	for s, last := range sc.lastUse {
		sc.release[last] += sc.size[s]
	}
	var live, peak int64
	for s := range sc.size {
		live += sc.size[s]
		if live > peak {
			peak = live
		}
		live -= sc.release[s]
	}
	est.ActivationPeak = peak * int64(batch)
	return est
}
