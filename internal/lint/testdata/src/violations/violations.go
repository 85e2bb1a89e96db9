// Package violations holds exactly one instance of every finding class the
// Nautilus analyzer suite reports. The golden test in internal/lint parses
// the want-comments ("<analyzer>: <message>") and asserts the suite
// produces exactly these diagnostics, no more and no fewer.
package violations

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"nautilus/internal/tensor"
)

// Determinism: wall-clock reads and the process-global rand source.

func clocky() time.Time {
	return time.Now() // want "determinism: time.Now reads the wall clock; route timing through a seeded/simulated clock or annotate the reporting site"
}

func randy() int {
	return rand.Intn(6) // want "determinism: rand.Intn draws from the unseeded global source; use rand.New(rand.NewSource(seed))"
}

// Floateq: exact floating-point comparison.

func floaty(a, b float64) bool {
	return a == b // want "floateq: == on floating-point operands; compare with an epsilon or on math.Float64bits"
}

// Layer purity: Forward stashes an activation on the receiver instead of
// passing it through the cache.

type leakyLayer struct {
	last float64
}

func (l *leakyLayer) Forward(x float64) float64 {
	l.last = x // want "layerpurity: Forward assigns to receiver state; layers are pure — pass activations through the returned cache"
	return x
}

func (l *leakyLayer) Backward(g float64) float64 {
	return g * l.last
}

// Allocation hygiene: a fixed-size scratch buffer allocated every
// iteration, used purely in place — hoistable above the loop.

func allocy(n, dim int) float32 {
	var sum float32
	for i := 0; i < n; i++ {
		buf := make([]float32, dim) // want "allochygiene: per-iteration make([]float32) with loop-invariant size; hoist the buffer out of the loop and reuse it"
		buf[0] = float32(i)
		sum += buf[0]
	}
	return sum
}

// Not flagged: the size depends on the loop variable (a fresh allocation is
// genuinely needed) or the buffer escapes the iteration.

func allocyOK(n int, sink [][]float64) {
	for i := 1; i < n; i++ {
		varying := make([]float64, i) // size is loop-variant
		varying[0] = 1
		escaping := make([]float64, n)
		sink[i] = escaping // stored beyond the iteration
	}
}

// Arena bypass: a layer Forward allocates its output with tensor.New
// instead of deriving it from a (scope-rooted) input via tensor.NewFrom,
// opting out of step-scoped buffer recycling.

type bypassLayer struct{}

func (bypassLayer) Forward(inputs []*tensor.Tensor, train bool) (*tensor.Tensor, any) {
	out := tensor.New(inputs[0].Shape()...) // want "allochygiene: tensor.New in Forward bypasses the step arena; derive the output from an input with tensor.NewFrom/NewFrom2"
	return out, nil
}

// Not flagged: the output derives from the input's allocator.

func (bypassLayer) Backward(cache any, inputs []*tensor.Tensor, out, gradOut *tensor.Tensor) []*tensor.Tensor {
	dx := tensor.NewFrom(gradOut, gradOut.Shape()...)
	return []*tensor.Tensor{dx}
}

// Unchecked error: an error result dropped on the floor.

func droppy(f *os.File) {
	fmt.Fprintf(f, "hi") // want "uncheckederr: result of fmt.Fprintf contains an ignored error"
}

// Suppressed: a well-formed //lint:ignore hides the finding entirely.

//lint:ignore determinism fixture demonstrating a valid suppression
func suppressed() time.Time { return time.Now() }

// Malformed suppression: no reason, so the framework reports the comment
// itself and the finding on the next line is NOT suppressed.

//lint:ignore floateq
func malformed(a, b float64) bool {
	return a != b // want "floateq: != on floating-point operands; compare with an epsilon or on math.Float64bits"
}

// resetCounter can never fail; its error result exists to satisfy an
// interface shape.
func resetCounter() error {
	return nil
}

// Unchecked error: the analyzer does not read the callee's body, so an
// always-nil error dropped on the floor is still a finding.

func dropInfallibleError() {
	resetCounter() // want "uncheckederr: result of resetCounter contains an ignored error"
}

// Not flagged: `_ =` is the visible, legal discard.

func discardInfallibleError() {
	_ = resetCounter()
}
