//go:build !race

package tensor

// raceBuild reports a -race build; see race_test.go.
const raceBuild = false
