package violations

import "nautilus/internal/tensor"

// Arenaescape: a scoped tensor is read after its scope was released — the
// arena may already have handed its buffer to the next step.

func arenaUseAfterRelease(a *tensor.Arena) float32 {
	s := a.Scope()
	x := s.Get(4)
	s.Release()
	return x.Data()[0] // want "arenaescape: x is backed by scope s, which may already be released here; move the use before Release or copy the tensor out"
}

// Arenaescape: a scoped tensor escapes on a channel while the function
// still releases the scope locally — the receiver sees recycled memory.

func arenaEscapeChannel(a *tensor.Arena, sink chan *tensor.Tensor) {
	s := a.Scope()
	x := s.Get(8)
	sink <- x // want "arenaescape: x is backed by scope s but escapes via a channel send, and the scope is released before the function returns; copy it out of the scope first"
	s.Release()
}

// Arenaescape: a scoped tensor is stored into a struct field that outlives
// the release.

type tensorHolder struct {
	t *tensor.Tensor
}

func arenaEscapeField(a *tensor.Arena, h *tensorHolder) {
	s := a.Scope()
	x := s.Get(8)
	h.t = x // want "arenaescape: x is backed by scope s but escapes via a struct field, and the scope is released before the function returns; copy it out of the scope first"
	s.Release()
}

// Arenaescape: a batch tensor is read after the step scope recycled — the
// scope lives on, but the buffer already backs the next batch.

func arenaUseAfterRecycle(a *tensor.Arena, batches int) float32 {
	s := a.Scope()
	defer s.Release()
	var sum float32
	for i := 0; i < batches; i++ {
		x := s.Get(4) // not flagged: x is re-derived every batch
		s.Recycle()
		sum += x.Data()[0] // want "arenaescape: x was allocated from scope s before a Recycle that may have run on the way here; move the use before Recycle or copy the tensor out"
	}
	return sum
}

// Not flagged: the prefetch-pipeline handoff — the tensor crosses the
// channel with its scope unreleased; releasing is the consumer's job.

func arenaHandoff(a *tensor.Arena, sink chan *tensor.Tensor) {
	s := a.Scope()
	x := s.Get(8)
	sink <- x
}

// Not flagged: every use happens strictly before Release.

func arenaOrdered(a *tensor.Arena) float32 {
	s := a.Scope()
	x := s.Get(4)
	v := x.Data()[0]
	s.Release()
	return v
}

// Suppressed: the use-after-release is deliberate and annotated.

func arenaSuppressed(a *tensor.Arena) float32 {
	s := a.Scope()
	x := s.Get(4)
	s.Release()
	//lint:ignore arenaescape fixture demonstrating a suppressed use-after-release
	return x.Data()[0]
}

// Arenaescape: the scope itself is asked for a buffer after its Release.

func arenaScopeUseAfterRelease(a *tensor.Arena) *tensor.Tensor {
	s := a.Scope()
	s.Release()
	return s.Get(4) // want "arenaescape: scope s may already be released here"
}
