package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestAttentionMatchesPerHeadChain holds the fused attention kernels bit for
// bit to the per-(batch, head) chain of public kernels they replaced
// (refAttention, refAttentionBackward): sequence lengths off the tile
// kernel's 4- and 8-column blocks, odd head widths, one to four heads,
// zeros of both signs, NaN and ±Inf planted in q, k, v and dctx, worker
// caps 1–3, on the heap and in a step scope. Half the shapes draw q, k, v
// and dctx with no zero; every shape's first batch element has softmax
// rows with exact zeros (underflowed scores) in front of ±Inf/NaN rows of v
// and dctx, which only the skip keeps out of ctx and dv — except where
// those rows are finite and mixed-sign instead (the zero-free shapes with
// no specials), so the tile kernel's dense body runs over the zeros and its
// -0 products meet +0 accumulators. The larger shapes pass the
// parallel threshold, so under -race two or three chunks run at once and a
// scratch slot they shared would be reported.
func TestAttentionMatchesPerHeadChain(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	t.Cleanup(func() { SetMaxWorkers(0) })
	// The planted NaN (bits 0x7fc00000) meets the NaNs 0·Inf and Inf−Inf
	// produce (0xffc00000), so the test checks which payload wins. The fused
	// kernels scan whole operands for finiteness and the chain one head at a
	// time, so a product may run the portable tile body on one side and the
	// assembly on the other; they keep the same payload except in a -race
	// build, which reorders the portable body's adds. There the planted NaN
	// is the default one, so no two payloads meet.
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	if raceBuild {
		nan = math.Float32frombits(0xffc00000)
	}
	for i, sh := range []struct{ batch, seq, heads, dh int }{
		{1, 1, 1, 1},
		{2, 3, 4, 1},
		{2, 5, 3, 3},
		{3, 12, 2, 16}, // BERT-mini
		{2, 13, 4, 7},
		{4, 7, 1, 9},
		{6, 12, 2, 16}, // fans out
		{8, 13, 4, 9},  // fans out
		{2, 17, 2, 5},  // two full 8-row blocks and one row
		{1, 9, 3, 4},   // a full block and one row
	} {
		dim := sh.heads * sh.dh
		rows := sh.batch * sh.seq
		fill := fillMixed
		if i%4 >= 2 {
			fill = fillDense
		}
		q, k, v, dctx := fill(rng, New(rows, dim)), fill(rng, New(rows, dim)), fill(rng, New(rows, dim)), fill(rng, New(rows, dim))
		if sh.seq >= 2 {
			behind := []float32{inf, nan, -inf}
			if i%4 == 2 {
				behind = []float32{3, -2, 0.5}
			}
			plantUnderflow(q, k, v, dctx, sh.heads, sh.dh, behind)
		}
		if i%2 == 1 { // specials: one of each in every operand
			for _, m := range []*Tensor{q, k, v, dctx} {
				for _, x := range []float32{nan, inf, -inf} {
					m.data[rng.Intn(len(m.data))] = x
				}
			}
		}
		scale := float32(1 / math.Sqrt(float64(sh.dh)))
		wantAttn, wantCtx := refAttention(q, k, v, sh.batch, sh.heads, scale)
		wantDQ, wantDK, wantDV := refAttentionBackward(q, k, v, wantAttn, dctx, scale)
		if sh.seq >= 2 && i%2 == 0 { // the skip is what keeps these finite
			for h := 0; h < sh.heads; h++ {
				if w := wantAttn.data[h*sh.seq*sh.seq+1]; w != 0 {
					t.Fatalf("shape %d head %d: attn[0][1] = %v, want an underflowed 0", i, h, w)
				}
				for j := h * sh.dh; j < (h+1)*sh.dh; j++ {
					for _, x := range []float32{wantCtx.Row(0)[j], wantDV.Row(1)[j]} {
						if math.IsInf(float64(x), 0) || math.IsNaN(float64(x)) {
							t.Fatalf("shape %d head %d: reference ctx row 0 or dv row 1 saw an Inf/NaN row through a zero weight", i, h)
						}
					}
				}
			}
		}
		for workers := 1; workers <= 3; workers++ {
			SetMaxWorkers(workers)
			for _, scoped := range []bool{false, true} {
				label := fmt.Sprintf("batch %d seq %d heads %d dh %d workers %d scoped %v", sh.batch, sh.seq, sh.heads, sh.dh, workers, scoped)
				var scope *Scope
				if scoped {
					scope = NewArena().Scope()
				}
				qs, ks, vs, ds := WithAlloc(scope, q), WithAlloc(scope, k), WithAlloc(scope, v), WithAlloc(scope, dctx)
				attn, ctx := Attention(qs, ks, vs, sh.batch, sh.heads, scale)
				assertBitsEqual(t, label+" attn", attn, wantAttn)
				assertBitsEqual(t, label+" ctx", ctx, wantCtx)
				dq, dk, dv := AttentionBackward(qs, ks, vs, attn, ds, scale)
				assertBitsEqual(t, label+" dq", dq, wantDQ)
				assertBitsEqual(t, label+" dk", dk, wantDK)
				assertBitsEqual(t, label+" dv", dv, wantDV)
				scope.Release()
			}
		}
	}
}

// plantUnderflow makes attn[0][1] of every head of batch element 0 an exact
// zero — q row 0 and k row 0 are +10, k row 1 is -10, so the row's scores
// differ by at least 200·scale·dh — and puts the three values of specials
// behind it: v row 1 (ctx row 0's term 1) and dctx row 0 (dv row 1's term 0).
func plantUnderflow(q, k, v, dctx *Tensor, heads, dh int, specials []float32) {
	for c := 0; c < heads*dh; c++ {
		q.Row(0)[c], k.Row(0)[c], k.Row(1)[c] = 10, 10, -10
		v.Row(1)[c], dctx.Row(0)[c] = specials[c%3], specials[(c+1)%3]
	}
}

// TestAttentionScopeFootprint: each kernel takes its outputs and one
// scratch slab from the step scope whatever batch×heads is, and hands the
// slab back, so the next Get of its size class reuses it.
func TestAttentionScopeFootprint(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for _, batch := range []int{1, 5} {
		scope := NewArena().Scope()
		q := WithAlloc(scope, RandNormal(rng, 1, batch*12, 32))
		attn, _ := Attention(q, q, q, batch, 2, 0.25)
		if got := scope.Live(); got != 3 {
			t.Errorf("batch %d: Attention took %d scope tensors, want attn, ctx and the scratch slab", batch, got)
		}
		if scope.stats.Puts != 1 {
			t.Errorf("batch %d: Attention returned %d buffers to the scope, want its scratch slab", batch, scope.stats.Puts)
		}
		AttentionBackward(q, q, q, attn, q, 0.25)
		if got := scope.Live(); got != 3+4 {
			t.Errorf("batch %d: AttentionBackward took %d scope tensors, want dq, dk, dv and the scratch slab", batch, got-3)
		}
		if scope.stats.Puts != 2 {
			t.Errorf("batch %d: AttentionBackward returned %d buffers to the scope, want its scratch slab", batch, scope.stats.Puts-1)
		}
		scope.Release()
	}
}
