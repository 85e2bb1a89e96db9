package tensor

import "fmt"

// ConvGeom describes the geometry of a 2-D convolution or pooling operation
// over NHWC tensors.
type ConvGeom struct {
	InH, InW, InC    int // input spatial dims and channels
	KH, KW           int // kernel spatial dims
	StrideH, StrideW int
	PadH, PadW       int // symmetric zero padding
}

// OutH returns the output height.
func (g ConvGeom) OutH() int { return (g.InH+2*g.PadH-g.KH)/g.StrideH + 1 }

// OutW returns the output width.
func (g ConvGeom) OutW() int { return (g.InW+2*g.PadW-g.KW)/g.StrideW + 1 }

// The conv/pool kernels resolve a Schedule for their shape like the matmul
// family; it decides only the fan-out. Their bodies are cache-aware
// reorganizations of the seed loops, none of which changes what any output
// element receives or in what order, so results are bit-identical to the
// seed bodies (the tests' oracle) under any schedule:
//
//   - merged interior copies: a patch row's KW per-kj copies read
//     consecutive memory whenever the whole row is in bounds (the kj
//     offset enters the source index with coefficient 1 regardless of
//     stride), so they collapse into one KW*InC copy/accumulate;
//   - divide-free iteration: the (b, i, j) output position advances by
//     carry counters instead of per-row div/mod;
//   - channel-inner pooling: the window scan streams each [InC] input row
//     once, comparing all channels per position, instead of rescanning
//     the window per channel.

// Im2Col lowers an NHWC input [batch, InH, InW, InC] into a matrix
// [batch*OutH*OutW, KH*KW*InC] so convolution becomes a single MatMul with a
// [KH*KW*InC, outC] kernel matrix. Each output row is written by exactly one
// chunk, so the parallel result is bit-identical to a serial run.
func Im2Col(x *Tensor, g ConvGeom) *Tensor {
	s := x.Shape()
	if len(s) != 4 || s[1] != g.InH || s[2] != g.InW || s[3] != g.InC {
		panic(fmt.Sprintf("tensor: Im2Col input shape %v does not match geometry %+v", s, g))
	}
	batch := s[0]
	oh, ow := g.OutH(), g.OutW()
	cols := g.KH * g.KW * g.InC
	rows := batch * oh * ow
	out := NewFrom(x, rows, cols)
	sch := scheduleFor(OpIm2Col, [3]int{rows, cols, 0})
	parallelFor(sch, rows, rows*cols, func(lo, hi int) {
		im2ColRows(out, x, g, oh, ow, lo, hi)
	})
	return out
}

// im2ColRows lowers output rows [lo,hi) with merged interior copies.
func im2ColRows(out, x *Tensor, g ConvGeom, oh, ow, lo, hi int) {
	rowLen := g.KW * g.InC
	b := lo / (oh * ow)
	rem := lo - b*oh*ow
	i := rem / ow
	j := rem - i*ow
	for row := lo; row < hi; row++ {
		dst := out.Row(row)
		xj0 := j*g.StrideW - g.PadW
		interior := xj0 >= 0 && xj0+g.KW <= g.InW
		di := 0
		for ki := 0; ki < g.KH; ki++ {
			yi := i*g.StrideH + ki - g.PadH
			if yi < 0 || yi >= g.InH {
				di += rowLen
				continue
			}
			if interior {
				src := ((b*g.InH+yi)*g.InW + xj0) * g.InC
				copy(dst[di:di+rowLen], x.data[src:src+rowLen])
				di += rowLen
				continue
			}
			for kj := 0; kj < g.KW; kj++ {
				xj := xj0 + kj
				if xj < 0 || xj >= g.InW {
					di += g.InC
					continue
				}
				src := ((b*g.InH+yi)*g.InW + xj) * g.InC
				copy(dst[di:di+g.InC], x.data[src:src+g.InC])
				di += g.InC
			}
		}
		j++
		if j == ow {
			j = 0
			i++
			if i == oh {
				i = 0
				b++
			}
		}
	}
}

// Col2Im scatters a column matrix gradient [batch*OutH*OutW, KH*KW*InC] back
// to the NHWC input gradient [batch, InH, InW, InC], accumulating overlaps.
// It is the adjoint of Im2Col. Overlapping windows accumulate into the same
// input positions, so parallelism is over the batch dimension only: each
// chunk owns whole per-example slabs of the output.
func Col2Im(cols *Tensor, batch int, g ConvGeom) *Tensor {
	oh, ow := g.OutH(), g.OutW()
	out := NewFrom(cols, batch, g.InH, g.InW, g.InC)
	sch := scheduleFor(OpCol2Im, [3]int{batch, oh * ow, g.KH * g.KW * g.InC})
	parallelFor(sch, batch, cols.Len(), func(blo, bhi int) {
		col2ImBatch(out, cols, g, oh, ow, blo, bhi)
	})
	return out
}

// col2ImBatch scatters examples [blo,bhi) back with merged interior
// accumulates. Per output element the adds arrive in the same (i, j, ki,
// kj) order as the seed loop; the merge only batches independent elements.
func col2ImBatch(out, cols *Tensor, g ConvGeom, oh, ow, blo, bhi int) {
	rowLen := g.KW * g.InC
	for b := blo; b < bhi; b++ {
		row := b * oh * ow
		for i := 0; i < oh; i++ {
			for j := 0; j < ow; j++ {
				src := cols.Row(row)
				row++
				xj0 := j*g.StrideW - g.PadW
				interior := xj0 >= 0 && xj0+g.KW <= g.InW
				si := 0
				for ki := 0; ki < g.KH; ki++ {
					yi := i*g.StrideH + ki - g.PadH
					if yi < 0 || yi >= g.InH {
						si += rowLen
						continue
					}
					if interior {
						dst := ((b*g.InH+yi)*g.InW + xj0) * g.InC
						vadd(out.data[dst:dst+rowLen], src[si:si+rowLen])
						si += rowLen
						continue
					}
					for kj := 0; kj < g.KW; kj++ {
						xj := xj0 + kj
						if xj < 0 || xj >= g.InW {
							si += g.InC
							continue
						}
						dst := ((b*g.InH+yi)*g.InW + xj) * g.InC
						vadd(out.data[dst:dst+g.InC], src[si:si+g.InC])
						si += g.InC
					}
				}
			}
		}
	}
}

// MaxPool2D applies max pooling to an NHWC tensor and returns the pooled
// output along with the argmax flat indices into x (one per output element),
// which MaxPool2DBackward uses to route gradients.
func MaxPool2D(x *Tensor, g ConvGeom) (*Tensor, []int32) {
	s := x.Shape()
	batch := s[0]
	oh, ow := g.OutH(), g.OutW()
	out := NewFrom(x, batch, oh, ow, g.InC)
	arg := make([]int32, out.Len())
	rows := batch * oh * ow
	sch := scheduleFor(OpMaxPool, [3]int{rows, g.InC, g.KH * g.KW})
	parallelFor(sch, rows, out.Len()*g.KH*g.KW, func(lo, hi int) {
		maxPoolRows(out, arg, x, g, oh, ow, lo, hi)
	})
	return out, arg
}

// maxPoolRows pools output positions [lo,hi) channel-inner: per window
// position one contiguous [InC] input row is streamed and compared across
// all channels. Per channel the comparisons happen in the same (ki, kj)
// order with the same strict-greater first-wins rule as the seed loop, so
// both the values and the argmax indices are identical.
func maxPoolRows(out *Tensor, arg []int32, x *Tensor, g ConvGeom, oh, ow, lo, hi int) {
	c := g.InC
	best := make([]float32, c)
	idx := make([]int32, c)
	b := lo / (oh * ow)
	rem := lo - b*oh*ow
	i := rem / ow
	j := rem - i*ow
	for row := lo; row < hi; row++ {
		for cc := 0; cc < c; cc++ {
			best[cc] = 0
			idx[cc] = -1
		}
		for ki := 0; ki < g.KH; ki++ {
			yi := i*g.StrideH + ki - g.PadH
			if yi < 0 || yi >= g.InH {
				continue
			}
			for kj := 0; kj < g.KW; kj++ {
				xj := j*g.StrideW + kj - g.PadW
				if xj < 0 || xj >= g.InW {
					continue
				}
				base := ((b*g.InH+yi)*g.InW + xj) * c
				xr := x.data[base : base+c]
				for cc, v := range xr {
					if idx[cc] < 0 || v > best[cc] {
						best[cc], idx[cc] = v, int32(base+cc)
					}
				}
			}
		}
		oi := row * c
		copy(out.data[oi:oi+c], best)
		copy(arg[oi:oi+c], idx)
		j++
		if j == ow {
			j = 0
			i++
			if i == oh {
				i = 0
				b++
			}
		}
	}
}

// MaxPool2DBackward scatters the pooled-output gradient back to the input
// positions recorded in arg. The argmax indices of one example always point
// into that example's slab of the input, so parallelism is over the batch
// dimension: each chunk scatters only into its own examples.
func MaxPool2DBackward(grad *Tensor, arg []int32, inShape []int) *Tensor {
	out := NewFrom(grad, inShape...)
	batch := inShape[0]
	if batch == 0 {
		return out
	}
	perBatch := len(arg) / batch
	sch := scheduleFor(OpMaxPoolBack, [3]int{batch, perBatch, 0})
	parallelFor(sch, batch, len(arg), func(blo, bhi int) {
		for i := blo * perBatch; i < bhi*perBatch; i++ {
			if idx := arg[i]; idx >= 0 {
				out.data[idx] += grad.data[i]
			}
		}
	})
	return out
}

// GlobalAvgPool averages an NHWC tensor over its spatial dimensions,
// returning [batch, channels].
func GlobalAvgPool(x *Tensor) *Tensor {
	s := x.Shape()
	batch, h, w, c := s[0], s[1], s[2], s[3]
	out := NewFrom(x, batch, c)
	inv := 1 / float32(h*w)
	sch := scheduleFor(OpGap, [3]int{batch, h * w, c})
	parallelFor(sch, batch, x.Len(), func(blo, bhi int) {
		for b := blo; b < bhi; b++ {
			ob := out.Row(b)
			for p := 0; p < h*w; p++ {
				vadd(ob, x.data[(b*h*w+p)*c:(b*h*w+p+1)*c])
			}
			for j := 0; j < c; j++ {
				ob[j] *= inv
			}
		}
	})
	return out
}

// GlobalAvgPoolBackward broadcasts the [batch, channels] gradient uniformly
// back over the spatial positions of the NHWC input shape.
func GlobalAvgPoolBackward(grad *Tensor, inShape []int) *Tensor {
	batch, h, w, c := inShape[0], inShape[1], inShape[2], inShape[3]
	out := NewFrom(grad, inShape...)
	inv := 1 / float32(h*w)
	sch := scheduleFor(OpGapBack, [3]int{batch, h * w, c})
	parallelFor(sch, batch, batch*h*w*c, func(blo, bhi int) {
		for b := blo; b < bhi; b++ {
			gb := grad.Row(b)
			for p := 0; p < h*w; p++ {
				or := out.data[(b*h*w+p)*c : (b*h*w+p+1)*c]
				for j := 0; j < c; j++ {
					or[j] = gb[j] * inv
				}
			}
		}
	})
	return out
}
