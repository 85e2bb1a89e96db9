package opt

import (
	"nautilus/internal/graph"
)

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
// byte under Adam (first and second moments) — the optimizer every training
// path uses unless a Trainer is handed another, so the planner's B_mem
// estimate and the trainer's live-memory replay agree on it.
const AdamSlotBytes = 2

// EstimatePeakMemory performs the topological live-tensor analysis of
// Figure 5 on a reuse plan: the plan's retained forward nodes are augmented
// with a loss barrier node and one backward node per layer on the gradient
// path; a topological traversal tracks which output tensors are live and
// returns the peak, plus parameter/optimizer/workspace terms.
//
// optBytesPerTrainableByte is the optimizer's slot overhead (0 for plain
// SGD, 1 for momentum, AdamSlotBytes for Adam).
func EstimatePeakMemory(plan *Plan, batch int, optBytesPerTrainableByte int64) MemoryEstimate {
	prof := plan.Prof
	m := prof.Model

	// Retained nodes in topological order.
	var fwd []*graph.Node
	for _, n := range m.Reachable() {
		if plan.Actions[n] != Pruned {
			fwd = append(fwd, n)
		}
	}

	est := MemoryEstimate{WorkspaceBytes: prof.HW.WorkspaceBytes}
	seenParam := map[*graph.Param]bool{}
	trainSet := map[*graph.Param]bool{}
	for _, p := range m.TrainableParams() {
		trainSet[p] = true
	}
	for _, n := range fwd {
		if plan.Actions[n] != Computed {
			continue
		}
		for _, p := range n.Layer.Params() {
			if seenParam[p] {
				continue
			}
			seenParam[p] = true
			est.ParamBytes += p.Bytes()
			if trainSet[p] {
				est.OptimizerBytes += p.Bytes() * optBytesPerTrainableByte
			}
		}
	}

	// Augmented graph (Figure 5B). Node ids: forward nodes 0..F-1, loss
	// node F, backward node of fwd[i] at F+1+i (when present).
	// needGrad: gradient flows into the node (it or an ancestor trains).
	needGrad := map[*graph.Node]bool{}
	for _, n := range fwd {
		v := plan.Actions[n] == Computed && !n.Frozen()
		if !v {
			for _, p := range n.Parents {
				if needGrad[p] {
					v = true
					break
				}
			}
		}
		needGrad[n] = v
	}
	// Backward node exists for computed nodes that either need grads
	// themselves or must propagate them (any parent needs grads).
	hasBwd := map[*graph.Node]bool{}
	for _, n := range fwd {
		if plan.Actions[n] != Computed {
			continue
		}
		if !n.Frozen() || anyNeeds(n.Parents, needGrad) {
			hasBwd[n] = true
		}
	}

	idx := map[*graph.Node]int{}
	for i, n := range fwd {
		idx[n] = i
	}
	F := len(fwd)
	loss := F
	bwdIdx := map[*graph.Node]int{}
	total := F + 1
	for _, n := range fwd {
		if hasBwd[n] {
			bwdIdx[n] = total
			total++
		}
	}

	// Tensor sizes: each augmented node produces one tensor of its s_mem.
	size := make([]int64, total)
	for i, n := range fwd {
		size[i] = prof.Layers[n].MemBytes
	}
	size[loss] = 0 // scalar loss; negligible
	for n, bi := range bwdIdx {
		size[bi] = prof.Layers[n].MemBytes
	}

	// Consumers of each augmented node's tensor (Figure 5B edges).
	consumers := make([][]int, total)
	childrenOf := childMap(m, fwd, plan)
	outputs := map[*graph.Node]bool{}
	for _, o := range m.Outputs {
		outputs[o] = true
	}
	for _, n := range fwd {
		i := idx[n]
		// Forward edges: parent output consumed by child forward node.
		if plan.Actions[n] == Computed {
			for _, p := range n.Parents {
				consumers[idx[p]] = append(consumers[idx[p]], i)
			}
		}
		// Output → loss.
		if outputs[n] {
			consumers[i] = append(consumers[i], loss)
		}
		if bi, ok := bwdIdx[n]; ok {
			// (l_i, l'_i): backward needs the forward output.
			consumers[i] = append(consumers[i], bi)
			// (l_p, l'_i): backward needs the forward inputs.
			for _, p := range n.Parents {
				consumers[idx[p]] = append(consumers[idx[p]], bi)
			}
			// (l'_s, l'_i): child backward gradients feed this backward.
			fedFromLoss := true
			for _, s := range childrenOf[n] {
				if sb, ok := bwdIdx[s]; ok {
					consumers[sb] = append(consumers[sb], bi)
					fedFromLoss = false
				}
			}
			// Output layers (or layers whose children have no backward)
			// receive their gradient from the loss node.
			if fedFromLoss || outputs[n] {
				consumers[loss] = append(consumers[loss], bi)
			}
		}
	}

	// Topological traversal order: forward nodes in order, loss, backward
	// nodes in reverse forward order (a valid topological order of the
	// augmented DAG). Track liveness: a tensor is live from its producer
	// until its last consumer has been processed.
	order := make([]int, 0, total)
	for i := 0; i < F; i++ {
		order = append(order, i)
	}
	order = append(order, loss)
	for i := F - 1; i >= 0; i-- {
		if bi, ok := bwdIdx[fwd[i]]; ok {
			order = append(order, bi)
		}
	}
	pos := make([]int, total)
	for p, id := range order {
		pos[id] = p
	}
	lastUse := make([]int, total)
	for id := range lastUse {
		lastUse[id] = pos[id] // at least live while produced
	}
	for id, cs := range consumers {
		for _, c := range cs {
			if pos[c] > lastUse[id] {
				lastUse[id] = pos[c]
			}
		}
	}

	// Sweep: allocate at production, free after last use.
	var live, peak int64
	freeAt := make([][]int, len(order)+1)
	for id := range size {
		freeAt[lastUse[id]+1] = append(freeAt[lastUse[id]+1], id)
	}
	for p, id := range order {
		live += size[id]
		if live > peak {
			peak = live
		}
		for _, f := range freeAt[p+1] {
			live -= size[f]
		}
	}
	est.ActivationPeak = peak * int64(batch)
	return est
}

// childMap returns, for every retained node, its retained computed
// children.
func childMap(m *graph.Model, fwd []*graph.Node, plan *Plan) map[*graph.Node][]*graph.Node {
	ch := map[*graph.Node][]*graph.Node{}
	retained := map[*graph.Node]bool{}
	for _, n := range fwd {
		retained[n] = true
	}
	for _, n := range fwd {
		if plan.Actions[n] != Computed {
			continue
		}
		for _, p := range n.Parents {
			if retained[p] {
				ch[p] = append(ch[p], n)
			}
		}
	}
	return ch
}

func anyNeeds(ns []*graph.Node, set map[*graph.Node]bool) bool {
	for _, n := range ns {
		if set[n] {
			return true
		}
	}
	return false
}
