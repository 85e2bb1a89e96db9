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

// Tensor is a dense row-major float32 tensor. scope remembers the step
// scope the tensor was allocated from (nil for plain heap tensors); NewFrom
// and the kernels consult it so tensors derived from a step-scoped tensor
// allocate from the same scope. taken is 1 + the buffer's entry in that
// scope's taken list when the scope owns the buffer, else 0 (Scope.Free).
// A shape of rank ≤ 4 lives in dims, inside the header, so a tensor is one
// heap object besides its buffer — and none when the header comes from a
// scope's slab.
type Tensor struct {
	shape []int
	dims  [4]int
	data  []float32
	scope *Scope
	taken int
}

// setShape stores a copy of shape in t: inline in dims when the rank fits,
// on the heap otherwise. The caller's slice never escapes through it.
func (t *Tensor) setShape(shape []int) {
	if len(shape) <= len(t.dims) {
		t.shape = t.dims[:len(shape):len(shape)]
		copy(t.shape, shape)
		return
	}
	t.shape = append([]int(nil), shape...)
}

// checkedElems returns the element count of shape, panicking on a negative
// dimension. The panic formats a copy, so shape stays on the caller's stack
// (NewFrom(x, seq, dh) allocates nothing for its variadic shape).
func checkedElems(shape []int) int {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, append([]int(nil), shape...)))
		}
		n *= d
	}
	return n
}

// New returns a zero-filled tensor with the given shape.
func New(shape ...int) *Tensor {
	t := &Tensor{data: make([]float32, checkedElems(shape))}
	t.setShape(shape)
	return t
}

// FromSlice wraps data in a tensor with the given shape. The slice is not
// copied; the caller must not alias it elsewhere.
func FromSlice(data []float32, shape ...int) *Tensor {
	// Only the copy reaches the panic message, so the caller's variadic
	// slice stays on its stack.
	t := &Tensor{data: data}
	t.setShape(shape)
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

// Clone returns a deep copy allocated from t's own scope (heap for
// unscoped tensors).
func (t *Tensor) Clone() *Tensor {
	c := NewFrom(t, t.shape...)
	copy(c.data, t.data)
	return c
}

// Reshape returns a new tensor header sharing t's data with a new shape of
// the same total size. At most one dimension may be -1, which is inferred.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	// The new header shares t's data and scope: a reshape of a scoped
	// tensor keeps deriving from the scope. It is not a Get, so the buffer
	// stays recorded once and recycles once.
	r := t.scope.header()
	r.setShape(shape)
	r.data, r.scope, r.taken = t.data, t.scope, t.taken
	shape = r.shape
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
	return r
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

// SameBuffer reports whether a and b are headers over one buffer: a layer
// output that is its input or a reshape of it. Views that start at an
// offset into a buffer are not detected; no layer makes one.
func SameBuffer(a, b *Tensor) bool {
	return len(a.data) > 0 && len(b.data) > 0 && &a.data[0] == &b.data[0]
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
