//go:build !race

package opt_test

// raceBuild reports a -race build; see race_test.go.
const raceBuild = false
