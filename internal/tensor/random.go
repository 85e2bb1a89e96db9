package tensor

import (
	"math"
	"math/rand"
)

// RandNormal fills a new tensor of the given shape with N(0, std²) samples
// drawn from rng.
func RandNormal(rng *rand.Rand, std float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = float32(rng.NormFloat64() * std)
	}
	return t
}

// GlorotUniform fills a new tensor using Glorot/Xavier uniform
// initialization for a weight matrix with the given fan-in and fan-out:
// samples from U(-limit, limit), limit = sqrt(6 / (fanIn + fanOut)).
func GlorotUniform(rng *rand.Rand, fanIn, fanOut int, shape ...int) *Tensor {
	limit := math.Sqrt(6 / float64(fanIn+fanOut))
	t := New(shape...)
	for i := range t.data {
		t.data[i] = float32(-limit + rng.Float64()*2*limit)
	}
	return t
}

// HeNormal fills a new tensor using He normal initialization for the given
// fan-in, the standard choice ahead of ReLU nonlinearities.
func HeNormal(rng *rand.Rand, fanIn int, shape ...int) *Tensor {
	return RandNormal(rng, math.Sqrt(2/float64(fanIn)), shape...)
}
