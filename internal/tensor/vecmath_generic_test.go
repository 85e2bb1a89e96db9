//go:build !amd64

package tensor

import "testing"

func requireVecMath(t *testing.T) {}

func checkExpCore(xs []float32, maxv float32) bool { return true }

func checkActCore(name string, xs []float32) int { return -1 }

func checkSoftmaxExp(t *testing.T, xs []float32, maxv float32) int { return 0 }
