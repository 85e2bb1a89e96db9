package exec

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"nautilus/internal/graph"
	"nautilus/internal/mmg"
	"nautilus/internal/obs"
	"nautilus/internal/storage"
	"nautilus/internal/tensor"
)

// Split names the dataset split a materialized artifact belongs to.
type Split string

// Dataset splits.
const (
	Train Split = "train"
	Valid Split = "valid"
)

// storeKey builds the tensor-store key of one materialized expression on
// one split.
func storeKey(sig graph.Signature, split Split) string {
	return sig.String() + "." + string(split)
}

// keySig recovers the expression signature from a materializer store key
// (the inverse of storeKey). ok is false for keys this package did not
// write — reconciliation leaves those untouched.
func keySig(key string) (graph.Signature, bool) {
	i := strings.IndexByte(key, '.')
	if i != 16 {
		return 0, false
	}
	switch Split(key[i+1:]) {
	case Train, Valid:
	default:
		return 0, false
	}
	v, err := strconv.ParseUint(key[:i], 16, 64)
	if err != nil {
		return 0, false
	}
	return graph.Signature(v), true
}

// Materializer computes the chosen intermediate outputs for newly labeled
// records and appends them to the tensor store — the incremental feature
// materialization of Section 4.2.3.
type Materializer struct {
	store *storage.TensorStore

	// matModel is the multi-model graph restricted to the chosen nodes.
	matModel *graph.Model
	// outputs maps each chosen node to its signature.
	outputs map[*graph.Node]graph.Signature
	// inputName is the dataset input node's name in the merged graph.
	inputName string
	// ChunkSize bounds how many records are forwarded at once.
	ChunkSize int
	// Prefetch overlaps the forward pass of chunk t+1 with the store
	// appends of chunk t (a one-chunk pipeline mirroring the trainer's
	// feed prefetcher). Results are bit-identical with or without it.
	Prefetch bool
	// Arena, when set, recycles each chunk's tensors (input slice, forward
	// intermediates, caches) once its appends finish; the store copies rows
	// into its own buffers synchronously, so release is safe.
	Arena *tensor.Arena
	// Obs, when set, wraps delta materialization in spans (per call and per
	// forward chunk). nil disables instrumentation.
	Obs *obs.Tracer
}

// NewMaterializer builds a materializer for the chosen signatures over the
// workload's multi-model graph. It returns nil (and no error) when nothing
// is materialized.
func NewMaterializer(store *storage.TensorStore, mm *mmg.MultiModel, sigs map[graph.Signature]bool) (*Materializer, error) {
	var outs []*graph.Node
	outputs := map[*graph.Node]graph.Signature{}
	for _, n := range mm.Graph.Nodes() {
		if sig := mm.Sig(n); sigs[sig] {
			outs = append(outs, n)
			outputs[n] = sig
		}
	}
	if len(outs) == 0 {
		return nil, nil
	}
	inputs := mm.Graph.Inputs()
	if len(inputs) != 1 {
		return nil, fmt.Errorf("exec: materializer expects one dataset input, found %d", len(inputs))
	}
	return &Materializer{
		store:     store,
		matModel:  mm.Graph.WithOutputs(outs...),
		outputs:   outputs,
		inputName: inputs[0].Name,
		ChunkSize: 64,
		Prefetch:  true,
	}, nil
}

// outputNodes lists the chosen nodes sorted by name for deterministic
// forwarding and append order.
func (mz *Materializer) outputNodes() []*graph.Node {
	nodes := make([]*graph.Node, 0, len(mz.outputs))
	for n := range mz.outputs {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Name < nodes[j].Name })
	return nodes
}

// appendNodes forwards deltaX through the ancestors of the given subset of
// chosen nodes only, appending each node's output to its artifact. With
// Prefetch set, a goroutine forwards chunk t+1 while the caller appends
// chunk t to the store, so compute overlaps artifact IO; each chunk runs in
// its own arena scope, released after its appends (the store copies rows
// synchronously).
func (mz *Materializer) appendNodes(split Split, nodes []*graph.Node, deltaX *tensor.Tensor) error {
	model := mz.matModel
	if len(nodes) < len(mz.outputs) {
		model = mz.matModel.WithOutputs(nodes...)
	}
	n := deltaX.Dim(0)
	span := mz.Obs.Start("mat/append_delta",
		obs.Str("split", string(split)),
		obs.Int("records", int64(n)),
		obs.Int("outputs", int64(len(nodes))))
	defer span.End()
	chunks := mz.forwardPipeline(model, span, deltaX, n)
	// On early error return, drain the pipeline so its goroutine finishes
	// and already-computed scopes are recycled.
	defer func() {
		for c := range chunks {
			c.scope.Release()
		}
	}()
	for c := range chunks {
		if c.err != nil {
			// The errored chunk was already received, so the deferred drain
			// never sees it; recycle its scope here.
			c.scope.Release()
			return fmt.Errorf("exec: materialize: %w", c.err)
		}
		for _, node := range nodes {
			if err := mz.store.Append(storeKey(mz.outputs[node], split), c.tape.Output(node)); err != nil {
				c.scope.Release()
				return err
			}
		}
		c.scope.Release()
	}
	return nil
}

// matChunk is one forwarded chunk in flight between the forward goroutine
// and the appending caller.
type matChunk struct {
	tape  *graph.Tape
	scope *tensor.Scope
	err   error
}

// forwardPipeline forwards deltaX chunk by chunk, one chunk ahead of the
// consumer when Prefetch is set (buffered channel of 1). Chunk spans sit on
// a separate trace track so the overlap against appends is visible.
func (mz *Materializer) forwardPipeline(model *graph.Model, span *obs.Span, deltaX *tensor.Tensor, n int) <-chan matChunk {
	buf := 0
	if mz.Prefetch {
		buf = 1
	}
	ch := make(chan matChunk, buf)
	go func() {
		defer close(ch)
		for lo := 0; lo < n; lo += mz.ChunkSize {
			hi := lo + mz.ChunkSize
			if hi > n {
				hi = n
			}
			cs := span.Child("mat/chunk", obs.Int("records", int64(hi-lo)))
			cs.SetTrack(2)
			scope := mz.Arena.Scope()
			chunk := sliceRecords(deltaX, lo, hi, scope)
			tape, err := model.ForwardOpts(map[string]*tensor.Tensor{mz.inputName: chunk}, graph.ForwardOptions{Alloc: scope})
			cs.End()
			ch <- matChunk{tape: tape, scope: scope, err: err}
			if err != nil {
				return
			}
		}
	}()
	return ch
}

// SyncSplit brings the store up to date with a full split tensor. Each
// chosen output is synced independently: artifacts kept across a
// reconciliation already hold every record and get nothing re-appended,
// while newly chosen signatures (empty artifacts) catch up from row zero.
// Outputs at the same record count share one forward pass over the missing
// tail. Called once per model-selection cycle, it realizes incremental
// feature materialization without explicit delta plumbing.
func (mz *Materializer) SyncSplit(split Split, fullX *tensor.Tensor) error {
	total := fullX.Dim(0)
	byHave := map[int][]*graph.Node{}
	minHave := total
	for _, node := range mz.outputNodes() {
		n, err := mz.store.Count(storeKey(mz.outputs[node], split))
		if err != nil {
			return err
		}
		if n < minHave {
			minHave = n
		}
		if n >= total {
			continue // already up to date
		}
		byHave[n] = append(byHave[n], node)
	}
	sp := mz.Obs.Start("mat/sync",
		obs.Str("split", string(split)),
		obs.Int("have", int64(minHave)),
		obs.Int("total", int64(total)),
		obs.Int("cohorts", int64(len(byHave))))
	defer sp.End()
	haves := make([]int, 0, len(byHave))
	for have := range byHave {
		haves = append(haves, have)
	}
	sort.Ints(haves)
	for _, have := range haves {
		if err := mz.appendNodes(split, byHave[have], sliceRecords(fullX, have, total, nil)); err != nil {
			return err
		}
	}
	return nil
}

// ReconcileStats reports what an artifact reconciliation kept and
// collected.
type ReconcileStats struct {
	// KeptSigs, NewSigs, and OrphanedSigs partition old ∪ new V: signatures
	// in both plans, only the new one, and only the old one.
	KeptSigs     int
	NewSigs      int
	OrphanedSigs int
	// DeletedKeys are the store keys GC removed (sorted).
	DeletedKeys []string
	// FreedBytes is the on-disk footprint of the deleted artifacts.
	FreedBytes int64
}

// ReconcileArtifacts garbage-collects materialized artifacts after a
// replan: every artifact whose signature left the materialized set V is
// deleted, every artifact still in V stays on disk with its records intact
// (the plan-delta reuse at the heart of evolving-workload replanning).
// Store keys not written by this package are never touched. oldSigs may be
// nil (first plan: nothing to collect).
func ReconcileArtifacts(store *storage.TensorStore, oldSigs, newSigs map[graph.Signature]bool) (*ReconcileStats, error) {
	st := &ReconcileStats{}
	for sig := range oldSigs {
		if newSigs[sig] {
			st.KeptSigs++
		} else {
			st.OrphanedSigs++
		}
	}
	for sig := range newSigs {
		if !oldSigs[sig] {
			st.NewSigs++
		}
	}
	deleted, freed, err := store.GC(func(key string) bool {
		sig, ok := keySig(key)
		if !ok {
			return true // not a materializer artifact
		}
		return newSigs[sig]
	})
	if err != nil {
		return nil, fmt.Errorf("exec: reconcile artifacts: %w", err)
	}
	st.DeletedKeys = deleted
	st.FreedBytes = freed
	return st, nil
}

// sliceRecords copies records [lo,hi) along dim 0 into a tensor allocated
// from s (nil = heap).
func sliceRecords(t *tensor.Tensor, lo, hi int, s *tensor.Scope) *tensor.Tensor {
	shape := append([]int(nil), t.Shape()...)
	rec := t.Len() / shape[0]
	shape[0] = hi - lo
	out := s.Get(shape...)
	copy(out.Data(), t.Data()[lo*rec:hi*rec])
	return out
}
