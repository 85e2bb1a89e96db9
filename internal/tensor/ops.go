package tensor

import "fmt"

// Add returns a + b elementwise.
func Add(a, b *Tensor) *Tensor {
	checkSame("Add", a, b)
	out := NewFrom2(a, b, a.shape...)
	parallelFor(scheduleFor(OpEltwise, [3]int{len(a.data), 0, 0}), len(a.data), len(a.data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.data[i] = a.data[i] + b.data[i]
		}
	})
	return out
}

// Mul returns a * b elementwise (Hadamard product).
func Mul(a, b *Tensor) *Tensor {
	checkSame("Mul", a, b)
	out := NewFrom2(a, b, a.shape...)
	parallelFor(scheduleFor(OpEltwise, [3]int{len(a.data), 0, 0}), len(a.data), len(a.data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.data[i] = a.data[i] * b.data[i]
		}
	})
	return out
}

// AddInPlace accumulates b into a and returns a.
func AddInPlace(a, b *Tensor) *Tensor {
	checkSame("AddInPlace", a, b)
	parallelFor(scheduleFor(OpEltwise, [3]int{len(a.data), 0, 0}), len(a.data), len(a.data), func(lo, hi int) {
		vadd(a.data[lo:hi], b.data[lo:hi])
	})
	return a
}

// AddRowVec adds vector v (length a.Cols()) to every row of a's 2-D view.
func AddRowVec(a, v *Tensor) *Tensor { return AddRowVecInPlace(a.Clone(), v) }

// AddRowVecInPlace is AddRowVec over a itself — the same float32 a[j]+v[j],
// for a buffer nobody else holds — and returns a.
func AddRowVecInPlace(a, v *Tensor) *Tensor {
	c := a.Cols()
	if v.Len() != c {
		panic(fmt.Sprintf("tensor: AddRowVec vector length %d != cols %d", v.Len(), c))
	}
	parallelFor(scheduleFor(OpEltwise, [3]int{a.Rows(), c, 0}), a.Rows(), a.Len(), func(lo, hi int) {
		for r := lo; r < hi; r++ {
			vadd(a.Row(r), v.data)
		}
	})
	return a
}

// SumRows returns the column-wise sum over all rows of a's 2-D view: a
// vector of length a.Cols(). It is the gradient counterpart of AddRowVec.
// It runs serially, one vector add per row: all rows accumulate into one
// shared output vector, and chunked accumulation would change float
// summation order.
func SumRows(a *Tensor) *Tensor {
	out := NewFrom(a, a.Cols())
	for r := 0; r < a.Rows(); r++ {
		vadd(out.data, a.Row(r))
	}
	return out
}

// Sum returns the sum of all elements as float64 for numerical robustness.
func Sum(a *Tensor) float64 {
	var s float64
	for _, v := range a.data {
		s += float64(v)
	}
	return s
}

// SoftmaxRows applies a numerically stable softmax to each row of a's 2-D
// view.
func SoftmaxRows(a *Tensor) *Tensor {
	return SoftmaxRowsInto(NewFrom(a, a.shape...), a)
}

// SoftmaxRowsInto is SoftmaxRows into dst, a tensor of a's shape the caller
// owns (dst may be a), and returns dst.
func SoftmaxRowsInto(dst, a *Tensor) *Tensor {
	checkSame("SoftmaxRowsInto", dst, a)
	c := a.Cols()
	if c == 0 {
		return dst
	}
	// Exp dominates; weight the work estimate accordingly so moderate row
	// counts still parallelize.
	parallelFor(scheduleFor(OpRowwise, [3]int{a.Rows(), c, 0}), a.Rows(), a.Len()*8, func(lo, hi int) {
		softmaxRows(dst.data[lo*c:hi*c], a.data[lo*c:hi*c], c, 1)
	})
	return dst
}

// softmaxRowsGeneric is the softmax slab kernel's portable body over the
// rows of c of src into dst (dst may be src): per row, or = ar·scale in
// float32 — the attention scores' multiply — then softmaxRow. A scale of 1
// is skipped: x·1 is x but for quieting a signalling NaN, and the max
// subtraction, the first arithmetic on every element, quiets it anyway.
func softmaxRowsGeneric(dst, src []float32, c int, scale float32) {
	for r := 0; r+c <= len(src); r += c {
		or, ar := dst[r:r+c], src[r:r+c]
		if scale != 1 {
			for j, v := range ar {
				or[j] = v * scale
			}
			ar = or
		}
		softmaxRow(or, ar)
	}
}

// softmaxRow is softmax's row body: or = exp(ar − max) / Σ exp(ar − max),
// the sum taken in float64 in ascending order. ar must be non-empty; or
// may be ar.
func softmaxRow(or, ar []float32) {
	maxv := ar[0]
	for _, v := range ar[1:] {
		if v > maxv {
			maxv = v
		}
	}
	inv := float32(1 / expSubRow(or, ar, maxv))
	for j := range or {
		or[j] *= inv
	}
}

// ConcatLast concatenates tensors along the last dimension. All inputs must
// agree on every leading dimension.
func ConcatLast(ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("tensor: ConcatLast of nothing")
	}
	rows := ts[0].Rows()
	total := 0
	var src *Tensor
	for _, t := range ts {
		if t.Rows() != rows {
			panic(fmt.Sprintf("tensor: ConcatLast row mismatch %d vs %d", t.Rows(), rows))
		}
		total += t.Cols()
		if src == nil && t.scope != nil {
			src = t
		}
	}
	var dims [4]int // the shape stays on the stack up to rank 4
	shape := append(dims[:0], ts[0].shape...)
	shape[len(shape)-1] = total
	out := NewFrom(src, shape...)
	for r := 0; r < rows; r++ {
		or := out.Row(r)
		off := 0
		for _, t := range ts {
			copy(or[off:], t.Row(r))
			off += t.Cols()
		}
	}
	return out
}

// SplitLast splits a along its last dimension into pieces of the given
// column widths; the widths must sum to a.Cols(). It is the gradient
// counterpart of ConcatLast.
func SplitLast(a *Tensor, widths []int) []*Tensor {
	sum := 0
	for _, w := range widths {
		sum += w
	}
	if sum != a.Cols() {
		panic(fmt.Sprintf("tensor: SplitLast widths %v do not sum to cols %d", widths, a.Cols()))
	}
	outs := make([]*Tensor, len(widths))
	for i, w := range widths {
		var dims [4]int
		shape := append(dims[:0], a.shape...)
		shape[len(shape)-1] = w
		outs[i] = NewFrom(a, shape...)
	}
	for r := 0; r < a.Rows(); r++ {
		ar := a.Row(r)
		off := 0
		for i, w := range widths {
			copy(outs[i].Row(r), ar[off:off+w])
			off += w
		}
	}
	return outs
}

func checkSame(op string, a, b *Tensor) {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, a.shape, b.shape))
	}
}
