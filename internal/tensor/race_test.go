//go:build race

package tensor

// raceBuild reports a -race build. Its instrumentation changes how the
// compiler orders the adds of the portable tile body, so which of two NaN
// payloads that body keeps can differ from the assembly's.
const raceBuild = true
