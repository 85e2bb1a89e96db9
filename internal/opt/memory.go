package opt

import "nautilus/internal/graph"

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
	// The augmented graph (Figure 5B) is graph.Liveness's: retained nodes
	// are held, computed ones run their layer, trainable ones seed gradient.
	sc.reach = v.markReachable(sc.reach)
	sc.flags = resize(sc.flags, len(v.layer))
	for i, lp := range v.layer {
		var f uint8
		if sc.reach[i] && actions[i] != Pruned {
			f = graph.Held
			if actions[i] == Computed {
				f |= graph.Computed
				if lp.Node.Trainable && len(lp.Params) > 0 { // !Frozen()
					f |= graph.Seeds
				}
			}
		}
		sc.flags[i] = f
	}
	lv := &sc.live
	lv.Build(v.parOff, v.par, sc.flags, v.outs)

	// Parameters of computed nodes, each once however many nodes hold it.
	est := MemoryEstimate{WorkspaceBytes: v.profs[0].HW.WorkspaceBytes}
	sc.seenParam = resize(sc.seenParam, v.nparams)
	clear(sc.seenParam)
	for i, lp := range v.layer {
		if lv.Fwd[i] < 0 || actions[i] != Computed {
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

	// A node's forward and backward tensors are both s_mem; the loss: nothing.
	steps := lv.Steps()
	sc.size, sc.release = resize(sc.size, steps), resize(sc.release, steps)
	clear(sc.size)
	for i, lp := range v.layer {
		if f := lv.Fwd[i]; f >= 0 {
			sc.size[f] = lp.MemBytes
		}
		if b := lv.Bwd[i]; b >= 0 {
			sc.size[b] = lp.MemBytes
		}
	}
	est.ActivationPeak = graph.PeakLive(sc.size, lv.LastUse, sc.release) * int64(batch)
	return est
}
