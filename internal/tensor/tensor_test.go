package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewZeroFilled(t *testing.T) {
	x := New(2, 3)
	if x.Len() != 6 {
		t.Fatalf("Len = %d, want 6", x.Len())
	}
	for i, v := range x.Data() {
		if v != 0 {
			t.Fatalf("element %d = %v, want 0", i, v)
		}
	}
}

func TestFromSliceAndAccessors(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	if got := x.At(1, 2); got != 6 {
		t.Errorf("At(1,2) = %v, want 6", got)
	}
	x.Set(9, 0, 1)
	if got := x.At(0, 1); got != 9 {
		t.Errorf("after Set, At(0,1) = %v, want 9", got)
	}
	if x.Rows() != 2 || x.Cols() != 3 {
		t.Errorf("Rows,Cols = %d,%d, want 2,3", x.Rows(), x.Cols())
	}
	if x.Dim(-1) != 3 || x.Dim(0) != 2 {
		t.Errorf("Dim(-1)=%d Dim(0)=%d", x.Dim(-1), x.Dim(0))
	}
	// Zero-width rows still count: Rows is the product of the leading
	// dimensions, and the row-wise kernels take [3, 0] as a no-op.
	z := New(3, 0)
	if z.Rows() != 3 || z.Cols() != 0 || New(2, 3, 0).Rows() != 6 {
		t.Errorf("[3,0]: Rows,Cols = %d,%d, want 3,0; [2,3,0]: Rows = %d, want 6", z.Rows(), z.Cols(), New(2, 3, 0).Rows())
	}
	if y := SoftmaxRows(z); y.Rows() != 3 || y.Len() != 0 {
		t.Errorf("SoftmaxRows([3,0]) = %v", y)
	}
	if y := AddRowVecInPlace(z, New(0)); y != z {
		t.Errorf("AddRowVecInPlace([3,0]) = %v", y)
	}
}

func TestFromSliceSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for size mismatch")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestReshape(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	y := x.Reshape(3, 2)
	if y.At(2, 1) != 6 {
		t.Errorf("reshaped At(2,1) = %v, want 6", y.At(2, 1))
	}
	z := x.Reshape(-1, 2)
	if z.Dim(0) != 3 {
		t.Errorf("inferred dim = %d, want 3", z.Dim(0))
	}
	// Shares data.
	y.Set(100, 0, 0)
	if x.At(0, 0) != 100 {
		t.Error("Reshape should share backing data")
	}
}

func TestReshapeBadSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad reshape")
		}
	}()
	New(2, 3).Reshape(4, 2)
}

func TestCloneIndependent(t *testing.T) {
	x := FromSlice([]float32{1, 2}, 2)
	y := x.Clone()
	y.Set(5, 0)
	if x.At(0) != 1 {
		t.Error("Clone must not share data")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float32{5, 6, 7, 8}, 2, 2)
	if got := Add(a, b).Data()[3]; got != 12 {
		t.Errorf("Add = %v, want 12", got)
	}
	if got := Mul(a, b).Data()[1]; got != 12 {
		t.Errorf("Mul = %v, want 12", got)
	}
}

func TestAddRowVecAndSumRows(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	v := FromSlice([]float32{10, 20, 30}, 3)
	got := AddRowVec(a, v)
	want := []float32{11, 22, 33, 14, 25, 36}
	for i := range want {
		if got.Data()[i] != want[i] {
			t.Fatalf("AddRowVec[%d] = %v, want %v", i, got.Data()[i], want[i])
		}
	}
	if in := AddRowVecInPlace(a.Clone(), v); !in.AllClose(got, 0) {
		t.Errorf("AddRowVecInPlace = %v, want AddRowVec's %v", in.Data(), got.Data())
	}
	s := SumRows(a)
	if s.At(0) != 5 || s.At(1) != 7 || s.At(2) != 9 {
		t.Errorf("SumRows = %v", s.Data())
	}
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float32{58, 64, 139, 154}
	for i := range want {
		if c.Data()[i] != want[i] {
			t.Fatalf("MatMul[%d] = %v, want %v", i, c.Data()[i], want[i])
		}
	}
}

func TestMatMulDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMul(New(2, 3), New(4, 2))
}

// naiveMatMul is the reference implementation used by property tests.
func naiveMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Rows(), a.Cols(), b.Cols()
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += float64(a.At(i, p)) * float64(b.At(p, j))
			}
			out.Set(float32(s), i, j)
		}
	}
	return out
}

func TestMatMulVariantsAgreeWithNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := 1+r.Intn(20), 1+r.Intn(20), 1+r.Intn(20)
		a := RandNormal(r, 1, m, k)
		b := RandNormal(r, 1, k, n)
		want := naiveMatMul(a, b)
		if !MatMul(a, b).AllClose(want, 1e-3) {
			return false
		}
		if !MatMulBT(a, Transpose2D(b)).AllClose(want, 1e-3) {
			return false
		}
		if !MatMulAT(Transpose2D(a), b).AllClose(want, 1e-3) {
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rng}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestMatMulLargeParallelMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := RandNormal(rng, 1, 120, 60)
	b := RandNormal(rng, 1, 60, 90)
	if !MatMul(a, b).AllClose(naiveMatMul(a, b), 1e-2) {
		t.Error("parallel MatMul disagrees with naive implementation")
	}
}

func TestTranspose2D(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	at := Transpose2D(a)
	if !ShapeEq(at.Shape(), []int{3, 2}) {
		t.Fatalf("shape = %v", at.Shape())
	}
	if at.At(2, 1) != 6 || at.At(0, 1) != 4 {
		t.Errorf("transpose values wrong: %v", at.Data())
	}
}

func TestTransposeInvolution(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := RandNormal(r, 1, 1+r.Intn(12), 1+r.Intn(12))
		return Transpose2D(Transpose2D(a)).AllClose(a, 0)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSoftmaxRows(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 1000, 1000, 1000}, 2, 3)
	y := SoftmaxRows(a)
	// Each row sums to 1; huge values must not overflow.
	for r := 0; r < 2; r++ {
		var sum float64
		for _, v := range y.Row(r) {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				t.Fatalf("softmax produced non-finite value %v", v)
			}
			sum += float64(v)
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Errorf("row %d sums to %v, want 1", r, sum)
		}
	}
	if !(y.At(0, 2) > y.At(0, 1) && y.At(0, 1) > y.At(0, 0)) {
		t.Error("softmax should be monotone in its inputs")
	}
}

func TestSoftmaxBackwardMatchesFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := RandNormal(rng, 1, 3, 4)
	g := RandNormal(rng, 1, 3, 4)
	y := SoftmaxRows(x)
	dx := refSoftmaxRowsBackward(y, g)
	const eps = 1e-3
	for i := 0; i < x.Len(); i++ {
		orig := x.Data()[i]
		x.Data()[i] = orig + eps
		yp := SoftmaxRows(x)
		x.Data()[i] = orig - eps
		ym := SoftmaxRows(x)
		x.Data()[i] = orig
		var num float64
		for j := 0; j < x.Len(); j++ {
			num += float64(g.Data()[j]) * float64(yp.Data()[j]-ym.Data()[j]) / (2 * eps)
		}
		if math.Abs(num-float64(dx.Data()[i])) > 1e-2 {
			t.Fatalf("softmax grad[%d]: numeric %v vs analytic %v", i, num, dx.Data()[i])
		}
	}
}

func TestConcatSplitRoundTrip(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows := 1 + r.Intn(6)
		widths := []int{1 + r.Intn(5), 1 + r.Intn(5), 1 + r.Intn(5)}
		parts := make([]*Tensor, len(widths))
		for i, w := range widths {
			parts[i] = RandNormal(r, 1, rows, w)
		}
		cat := ConcatLast(parts...)
		back := SplitLast(cat, widths)
		for i := range parts {
			if !back[i].AllClose(parts[i], 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestIm2ColIdentityKernel(t *testing.T) {
	// A 1x1 kernel with stride 1 should reproduce the input exactly.
	rng := rand.New(rand.NewSource(5))
	x := RandNormal(rng, 1, 2, 4, 4, 3)
	g := ConvGeom{InH: 4, InW: 4, InC: 3, KH: 1, KW: 1, StrideH: 1, StrideW: 1}
	cols := Im2Col(x, g)
	if !ShapeEq(cols.Shape(), []int{2 * 16, 3}) {
		t.Fatalf("cols shape = %v", cols.Shape())
	}
	if !cols.Reshape(2, 4, 4, 3).AllClose(x, 0) {
		t.Error("1x1 im2col should be the identity")
	}
}

func TestIm2ColCol2ImAdjoint(t *testing.T) {
	// <Im2Col(x), y> == <x, Col2Im(y)> — the defining adjoint property,
	// which guarantees correct convolution gradients.
	rng := rand.New(rand.NewSource(9))
	g := ConvGeom{InH: 5, InW: 5, InC: 2, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}
	x := RandNormal(rng, 1, 2, 5, 5, 2)
	cols := Im2Col(x, g)
	y := RandNormal(rng, 1, cols.Shape()...)
	lhs := Sum(Mul(cols, y))
	rhs := Sum(Mul(x, Col2Im(y, 2, g)))
	if math.Abs(lhs-rhs) > 1e-2 {
		t.Errorf("adjoint mismatch: %v vs %v", lhs, rhs)
	}
}

func TestMaxPoolForwardBackward(t *testing.T) {
	x := FromSlice([]float32{
		1, 5, 2, 0,
		3, 4, 1, 1,
		0, 0, 9, 2,
		1, 1, 3, 8,
	}, 1, 4, 4, 1)
	g := ConvGeom{InH: 4, InW: 4, InC: 1, KH: 2, KW: 2, StrideH: 2, StrideW: 2}
	y, arg := MaxPool2D(x, g)
	want := []float32{5, 2, 1, 9}
	for i, w := range want {
		if y.Data()[i] != w {
			t.Fatalf("pool[%d] = %v, want %v", i, y.Data()[i], w)
		}
	}
	grad := FromSlice([]float32{1, 1, 1, 1}, 1, 2, 2, 1)
	dx := MaxPool2DBackward(grad, arg, x.Shape())
	if dx.At(0, 0, 1, 0) != 1 || dx.At(0, 2, 2, 0) != 1 {
		t.Error("gradient not routed to argmax positions")
	}
	if s := Sum(dx); s != 4 {
		t.Errorf("gradient mass = %v, want 4", s)
	}
}

func TestGlobalAvgPool(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4, 5, 6, 7, 8}, 1, 2, 2, 2)
	y := GlobalAvgPool(x)
	if y.At(0, 0) != 4 || y.At(0, 1) != 5 {
		t.Errorf("avg pool = %v", y.Data())
	}
	grad := FromSlice([]float32{4, 8}, 1, 2)
	dx := GlobalAvgPoolBackward(grad, x.Shape())
	if dx.At(0, 0, 0, 0) != 1 || dx.At(0, 1, 1, 1) != 2 {
		t.Errorf("avg pool backward = %v", dx.Data())
	}
}

func TestRandomInitializers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := RandNormal(rng, 0.5, 10000)
	var mean, m2 float64
	for _, v := range n.Data() {
		mean += float64(v)
	}
	mean /= float64(n.Len())
	for _, v := range n.Data() {
		d := float64(v) - mean
		m2 += d * d
	}
	std := math.Sqrt(m2 / float64(n.Len()))
	if math.Abs(mean) > 0.05 || math.Abs(std-0.5) > 0.05 {
		t.Errorf("normal stats mean=%v std=%v", mean, std)
	}
	g := GlorotUniform(rng, 100, 100, 100, 100)
	if MaxAbs(g) > float32(math.Sqrt(6.0/200))+1e-6 {
		t.Error("glorot sample exceeds limit")
	}
}

func TestFingerprintDistinguishesAndMatches(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	c := FromSlice([]float32{1, 2, 3, 4}, 4)
	d := FromSlice([]float32{1, 2, 3, 5}, 2, 2)
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("identical tensors must share a fingerprint")
	}
	if a.Fingerprint() == c.Fingerprint() {
		t.Error("different shapes should change the fingerprint")
	}
	if a.Fingerprint() == d.Fingerprint() {
		t.Error("different data should change the fingerprint")
	}
}

func TestDeterministicInit(t *testing.T) {
	a := RandNormal(rand.New(rand.NewSource(42)), 1, 5, 5)
	b := RandNormal(rand.New(rand.NewSource(42)), 1, 5, 5)
	if !a.AllClose(b, 0) {
		t.Error("same seed must produce identical tensors")
	}
}

// MaxAbs returns the largest absolute element value.
func MaxAbs(a *Tensor) float32 {
	var m float32
	for _, v := range a.data {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}

// Transpose2D returns the transpose of a's 2-D view as a [cols, rows]
// tensor.
func Transpose2D(a *Tensor) *Tensor {
	r, c := a.Rows(), a.Cols()
	out := NewFrom(a, c, r)
	for i := 0; i < r; i++ {
		ai := a.Row(i)
		for j := 0; j < c; j++ {
			out.data[j*r+i] = ai[j]
		}
	}
	return out
}
