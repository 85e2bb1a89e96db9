package train

import (
	"math"

	"nautilus/internal/graph"
	"nautilus/internal/tensor"
)

// Optimizer updates parameters from accumulated gradients. Each model (or
// each branch of a fused model) owns its own optimizer instance; Nautilus's
// fused trainer runs several optimizers side by side, one per trainable
// branch (paper Section 3, Trainer).
type Optimizer interface {
	// Step applies one update to every param present in grads.
	Step(grads map[*graph.Param]*tensor.Tensor)
}

// Adam is the Adam optimizer with bias correction, the one optimizer the
// trainer runs: the planner's B_mem estimate charges its two moment slots
// per trainable parameter byte (opt.AdamSlotBytes).
type Adam struct {
	LR, Beta1, Beta2, Eps float64

	t int
	m map[*graph.Param]*tensor.Tensor
	v map[*graph.Param]*tensor.Tensor
}

// NewAdam returns an Adam optimizer with standard betas.
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: map[*graph.Param]*tensor.Tensor{},
		v: map[*graph.Param]*tensor.Tensor{},
	}
}

// Step implements Optimizer.
func (o *Adam) Step(grads map[*graph.Param]*tensor.Tensor) {
	c1, c2 := o.tick()
	for p, g := range grads {
		o.update(p, g, c1, c2)
	}
}

// StepEach is Step over grads[i] of params[i], skipping nil gradients: the
// trainer's form, whose branch parameter lists are fixed per group.
func (o *Adam) StepEach(params []*graph.Param, grads []*tensor.Tensor) {
	c1, c2 := o.tick()
	for i, g := range grads {
		if g != nil {
			o.update(params[i], g, c1, c2)
		}
	}
}

// tick advances the step count and returns the bias corrections.
func (o *Adam) tick() (c1, c2 float64) {
	o.t++
	return 1 - math.Pow(o.Beta1, float64(o.t)), 1 - math.Pow(o.Beta2, float64(o.t))
}

func (o *Adam) update(p *graph.Param, g *tensor.Tensor, c1, c2 float64) {
	w := p.Tensor()
	m := o.m[p]
	v := o.v[p]
	if m == nil {
		m = tensor.New(w.Shape()...)
		v = tensor.New(w.Shape()...)
		o.m[p] = m
		o.v[p] = v
	}
	wd, gd, md, vd := w.Data(), g.Data(), m.Data(), v.Data()
	b1, b2 := float32(o.Beta1), float32(o.Beta2)
	for i := range wd {
		md[i] = b1*md[i] + (1-b1)*gd[i]
		vd[i] = b2*vd[i] + (1-b2)*gd[i]*gd[i]
		mhat := float64(md[i]) / c1
		vhat := float64(vd[i]) / c2
		wd[i] -= float32(o.LR * mhat / (math.Sqrt(vhat) + o.Eps))
	}
}
