package tensor

import "fmt"

// The seed kernel bodies, kept as the bit-identity oracles of the tiled and
// cache-aware kernels the package runs. Each is the plain loop the kernel
// started from, single-threaded, with no schedule: the matmul family
// accumulates every output element over ascending p with one multiply then
// one add per term and skips exact-zero a-coefficients; the conv/pool
// bodies recover each output position by div/mod and copy or compare one
// kernel column (or one channel) at a time.

// refMatMul is the row-axpy triple loop of the seed MatMul.
func refMatMul(a, b *Tensor) *Tensor {
	m, k := a.Rows(), a.Cols()
	k2, n := b.Rows(), b.Cols()
	if k != k2 {
		panic(fmt.Sprintf("refMatMul: inner dimension mismatch [%d,%d]x[%d,%d]", m, k, k2, n))
	}
	out := New(m, n)
	for i := 0; i < m; i++ {
		ai := a.data[i*k : (i+1)*k]
		oi := out.data[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := ai[p]
			if av == 0 {
				continue
			}
			bp := b.data[p*n : (p+1)*n]
			for j := range bp {
				oi[j] += av * bp[j]
			}
		}
	}
	return out
}

// refMatMulBT is per-element dot products in ascending p with the family's
// exact-zero skip on a's coefficients.
func refMatMulBT(a, b *Tensor) *Tensor {
	m, k := a.Rows(), a.Cols()
	n, k2 := b.Rows(), b.Cols()
	if k != k2 {
		panic(fmt.Sprintf("refMatMulBT: inner dimension mismatch [%d,%d]x[%d,%d]T", m, k, n, k2))
	}
	out := New(m, n)
	for i := 0; i < m; i++ {
		ai := a.data[i*k : (i+1)*k]
		oi := out.data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			bj := b.data[j*k : (j+1)*k]
			var s float32
			for p := 0; p < k; p++ {
				av := ai[p]
				if av == 0 {
					continue
				}
				s += av * bj[p]
			}
			oi[j] = s
		}
	}
	return out
}

// refMatMulAT is the seed MatMulAT: a's rows in the outer loop.
func refMatMulAT(a, b *Tensor) *Tensor {
	k, m := a.Rows(), a.Cols()
	k2, n := b.Rows(), b.Cols()
	if k != k2 {
		panic(fmt.Sprintf("refMatMulAT: inner dimension mismatch [%d,%d]T x [%d,%d]", k, m, k2, n))
	}
	out := New(m, n)
	for p := 0; p < k; p++ {
		ap := a.data[p*m : (p+1)*m]
		bp := b.data[p*n : (p+1)*n]
		for i := 0; i < m; i++ {
			av := ap[i]
			if av == 0 {
				continue
			}
			oi := out.data[i*n : (i+1)*n]
			for j := range bp {
				oi[j] += av * bp[j]
			}
		}
	}
	return out
}

// refIm2Col is the seed Im2Col: per-row div/mod position recovery and
// per-kj copies.
func refIm2Col(x *Tensor, g ConvGeom) *Tensor {
	batch := x.Shape()[0]
	oh, ow := g.OutH(), g.OutW()
	out := New(batch*oh*ow, g.KH*g.KW*g.InC)
	for row := 0; row < batch*oh*ow; row++ {
		b := row / (oh * ow)
		rem := row - b*oh*ow
		i := rem / ow
		j := rem - i*ow
		dst := out.Row(row)
		di := 0
		for ki := 0; ki < g.KH; ki++ {
			yi := i*g.StrideH + ki - g.PadH
			if yi < 0 || yi >= g.InH {
				di += g.KW * g.InC
				continue
			}
			for kj := 0; kj < g.KW; kj++ {
				xj := j*g.StrideW + kj - g.PadW
				if xj < 0 || xj >= g.InW {
					di += g.InC
					continue
				}
				src := ((b*g.InH+yi)*g.InW + xj) * g.InC
				copy(dst[di:di+g.InC], x.data[src:src+g.InC])
				di += g.InC
			}
		}
	}
	return out
}

// refCol2Im is the seed Col2Im: one scalar accumulate per channel.
func refCol2Im(cols *Tensor, batch int, g ConvGeom) *Tensor {
	oh, ow := g.OutH(), g.OutW()
	out := New(batch, g.InH, g.InW, g.InC)
	for b := 0; b < batch; b++ {
		row := b * oh * ow
		for i := 0; i < oh; i++ {
			for j := 0; j < ow; j++ {
				src := cols.Row(row)
				row++
				si := 0
				for ki := 0; ki < g.KH; ki++ {
					yi := i*g.StrideH + ki - g.PadH
					if yi < 0 || yi >= g.InH {
						si += g.KW * g.InC
						continue
					}
					for kj := 0; kj < g.KW; kj++ {
						xj := j*g.StrideW + kj - g.PadW
						if xj < 0 || xj >= g.InW {
							si += g.InC
							continue
						}
						dst := ((b*g.InH+yi)*g.InW + xj) * g.InC
						for c := 0; c < g.InC; c++ {
							out.data[dst+c] += src[si+c]
						}
						si += g.InC
					}
				}
			}
		}
	}
	return out
}

// refMaxPool2D is the seed MaxPool2D: a channel-outer window scan.
func refMaxPool2D(x *Tensor, g ConvGeom) (*Tensor, []int32) {
	batch := x.Shape()[0]
	oh, ow := g.OutH(), g.OutW()
	out := New(batch, oh, ow, g.InC)
	arg := make([]int32, out.Len())
	for row := 0; row < batch*oh*ow; row++ {
		b := row / (oh * ow)
		rem := row - b*oh*ow
		i := rem / ow
		j := rem - i*ow
		oi := row * g.InC
		for c := 0; c < g.InC; c++ {
			best := float32(0)
			bestIdx := int32(-1)
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
					idx := ((b*g.InH+yi)*g.InW+xj)*g.InC + c
					v := x.data[idx]
					if bestIdx < 0 || v > best {
						best, bestIdx = v, int32(idx)
					}
				}
			}
			out.data[oi] = best
			arg[oi] = bestIdx
			oi++
		}
	}
	return out, arg
}

// refGlobalAvgPool is the seed GlobalAvgPool: scalar per-channel sums.
func refGlobalAvgPool(x *Tensor) *Tensor {
	s := x.Shape()
	batch, h, w, c := s[0], s[1], s[2], s[3]
	out := New(batch, c)
	inv := 1 / float32(h*w)
	for b := 0; b < batch; b++ {
		ob := out.Row(b)
		for p := 0; p < h*w; p++ {
			xr := x.data[(b*h*w+p)*c : (b*h*w+p+1)*c]
			for j := 0; j < c; j++ {
				ob[j] += xr[j]
			}
		}
		for j := 0; j < c; j++ {
			ob[j] *= inv
		}
	}
	return out
}

// refScaleInPlace is the retired ScaleInPlace: every element of a times s.
func refScaleInPlace(a *Tensor, s float32) *Tensor {
	for i := range a.data {
		a.data[i] *= s
	}
	return a
}

// refSoftmaxRowsBackward is the retired SoftmaxRowsBackward: the input
// gradient of SoftmaxRows from its output y and upstream gradient g, per
// row dx = y ⊙ (g − Σ g⊙y), the sum in float64 in ascending order.
func refSoftmaxRowsBackward(y, g *Tensor) *Tensor {
	out := New(y.shape...)
	c := y.Cols()
	for r := 0; r < y.Rows(); r++ {
		yr, gr, or := y.Row(r), g.Row(r), out.Row(r)
		var dot float64
		for j := 0; j < c; j++ {
			dot += float64(yr[j] * gr[j])
		}
		d := float32(dot)
		for j := 0; j < c; j++ {
			or[j] = yr[j] * (gr[j] - d)
		}
	}
	return out
}

// refHead copies head h of batch element b out of a [batch*seq, heads*dh]
// matrix into a contiguous [seq, dh] matrix; writeRefHead scatters one back.
func refHead(m *Tensor, b, h, seq, dh int) *Tensor {
	out := New(seq, dh)
	for s := 0; s < seq; s++ {
		copy(out.Row(s), m.Row(b*seq + s)[h*dh:(h+1)*dh])
	}
	return out
}

func writeRefHead(dst, src *Tensor, b, h, seq, dh int) {
	for s := 0; s < seq; s++ {
		copy(dst.Row(b*seq + s)[h*dh:(h+1)*dh], src.Row(s))
	}
}

// refAttention is the per-(batch, head) chain of public kernels the fused
// Attention replaced: copy the head out, MatMulBT, scale, softmax, MatMul,
// scatter the head output back.
func refAttention(q, k, v *Tensor, batch, heads int, scale float32) (attn, ctx *Tensor) {
	seq, dim := q.Rows()/batch, q.Cols()
	dh := dim / heads
	attn, ctx = New(batch, heads, seq, seq), New(batch*seq, dim)
	for b := 0; b < batch; b++ {
		for h := 0; h < heads; h++ {
			scores := refScaleInPlace(MatMulBT(refHead(q, b, h, seq, dh), refHead(k, b, h, seq, dh)), scale)
			pr := b*heads + h
			a := SoftmaxRowsInto(FromSlice(attn.data[pr*seq*seq:(pr+1)*seq*seq], seq, seq), scores)
			writeRefHead(ctx, MatMul(a, refHead(v, b, h, seq, dh)), b, h, seq, dh)
		}
	}
	return attn, ctx
}

// refAttentionBackward is the per-(batch, head) chain the fused
// AttentionBackward replaced.
func refAttentionBackward(q, k, v, attn, dctx *Tensor, scale float32) (dq, dk, dv *Tensor) {
	batch, heads, seq := attn.Dim(0), attn.Dim(1), attn.Dim(2)
	dim := q.Cols()
	dh := dim / heads
	dq, dk, dv = New(batch*seq, dim), New(batch*seq, dim), New(batch*seq, dim)
	for b := 0; b < batch; b++ {
		for h := 0; h < heads; h++ {
			pr := b*heads + h
			a := FromSlice(attn.data[pr*seq*seq:(pr+1)*seq*seq], seq, seq)
			doh := refHead(dctx, b, h, seq, dh)
			ds := refScaleInPlace(refSoftmaxRowsBackward(a, MatMulBT(doh, refHead(v, b, h, seq, dh))), scale)
			writeRefHead(dq, MatMul(ds, refHead(k, b, h, seq, dh)), b, h, seq, dh)
			writeRefHead(dk, MatMulAT(ds, refHead(q, b, h, seq, dh)), b, h, seq, dh)
			writeRefHead(dv, MatMulAT(a, doh), b, h, seq, dh)
		}
	}
	return dq, dk, dv
}
