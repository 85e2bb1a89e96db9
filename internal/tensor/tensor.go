// Package tensor implements dense float32 tensors and the numerical kernels
// needed by the Nautilus deep-learning substrate: matrix multiplication,
// elementwise operations, reductions, convolution lowering (im2col), pooling,
// and deterministic random initialization.
//
// Tensors are row-major. Most kernels interpret a tensor of rank > 2 as a 2-D
// matrix whose row count is the product of all leading dimensions and whose
// column count is the last dimension; this matches how the layer package
// applies per-position transforms to [batch, seq, hidden] activations.
package tensor

import (
	"fmt"
	"math"
)

// Tensor is a dense row-major float32 tensor. alloc remembers the
// allocation strategy the tensor came from (nil for plain heap tensors);
// NewFrom and the kernels consult it so tensors derived from a step-scoped
// tensor allocate from the same scope.
type Tensor struct {
	shape []int
	data  []float32
	alloc Alloc
}

// New returns a zero-filled tensor with the given shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	return &Tensor{shape: append([]int(nil), shape...), data: make([]float32, n)}
}

// FromSlice wraps data in a tensor with the given shape. The slice is not
// copied; the caller must not alias it elsewhere.
func FromSlice(data []float32, shape ...int) *Tensor {
	// Only the copy reaches the panic message, so the caller's variadic
	// slice stays on its stack.
	t := &Tensor{shape: append([]int(nil), shape...), data: data}
	if n := NumElems(t.shape); n != len(data) {
		panic(fmt.Sprintf("tensor: shape %v needs %d elements, got %d", t.shape, n, len(data)))
	}
	return t
}

// Shape returns the tensor's dimensions. The returned slice must not be
// modified.
func (t *Tensor) Shape() []int { return t.shape }

// Data returns the backing slice. Mutating it mutates the tensor.
func (t *Tensor) Data() []float32 { return t.data }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Dim returns the size of dimension i. Negative i counts from the end.
func (t *Tensor) Dim(i int) int {
	if i < 0 {
		i += len(t.shape)
	}
	return t.shape[i]
}

// Rows returns the product of all leading dimensions (the 2-D view row
// count); Cols returns the last dimension. A scalar tensor has Rows()==1.
func (t *Tensor) Rows() int {
	if len(t.shape) == 0 {
		return 1
	}
	return NumElems(t.shape[:len(t.shape)-1])
}

// Cols returns the size of the last dimension, or 1 for a scalar.
func (t *Tensor) Cols() int {
	if len(t.shape) == 0 {
		return 1
	}
	return t.shape[len(t.shape)-1]
}

// At returns the element at the given multi-dimensional index.
func (t *Tensor) At(idx ...int) float32 { return t.data[t.offset(idx)] }

// Set assigns the element at the given multi-dimensional index.
func (t *Tensor) Set(v float32, idx ...int) { t.data[t.offset(idx)] = v }

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match shape %v", len(idx), t.shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// Clone returns a deep copy allocated from t's own allocator (heap for
// unscoped tensors).
func (t *Tensor) Clone() *Tensor {
	c := NewFrom(t, t.shape...)
	copy(c.data, t.data)
	return c
}

// Reshape returns a new tensor header sharing t's data with a new shape of
// the same total size. At most one dimension may be -1, which is inferred.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	shape = append([]int(nil), shape...)
	infer, n := -1, 1
	for i, d := range shape {
		if d == -1 {
			if infer >= 0 {
				panic("tensor: multiple -1 dimensions in Reshape")
			}
			infer = i
		} else {
			n *= d
		}
	}
	if infer >= 0 {
		if n == 0 || t.Len()%n != 0 {
			panic(fmt.Sprintf("tensor: cannot infer dimension reshaping %v to %v", t.shape, shape))
		}
		shape[infer] = t.Len() / n
		n = t.Len()
	}
	if n != t.Len() {
		panic(fmt.Sprintf("tensor: reshape %v to %v changes size", t.shape, shape))
	}
	// The new header shares t's data and allocator: a reshape of a scoped
	// tensor keeps deriving from the scope. (Only the original Get is
	// recorded for release, so the alias cannot cause a double free.)
	return &Tensor{shape: shape, data: t.data, alloc: t.alloc}
}

// Row returns a view of row r of the 2-D interpretation of t.
func (t *Tensor) Row(r int) []float32 {
	c := t.Cols()
	return t.data[r*c : (r+1)*c]
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.data {
		t.data[i] = v
	}
}

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.data {
		t.data[i] = 0
	}
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	return true
}

// AllClose reports whether every element of t is within tol of the
// corresponding element of o.
func (t *Tensor) AllClose(o *Tensor, tol float64) bool {
	if t.Len() != o.Len() {
		return false
	}
	for i := range t.data {
		if math.Abs(float64(t.data[i]-o.data[i])) > tol {
			return false
		}
	}
	return true
}

// String renders a compact description, truncating large tensors.
func (t *Tensor) String() string {
	const maxShown = 8
	if t.Len() <= maxShown {
		return fmt.Sprintf("Tensor%v%v", t.shape, t.data)
	}
	return fmt.Sprintf("Tensor%v[%v ... %v]", t.shape, t.data[:4], t.data[t.Len()-2:])
}

// ShapeEq reports whether two shape slices are identical.
func ShapeEq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// NumElems returns the product of the dimensions in shape.
func NumElems(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}
