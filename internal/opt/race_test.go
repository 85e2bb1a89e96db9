//go:build race

package opt_test

// raceBuild reports a -race build, under which TestSolversAndFusersAgree
// runs a trimmed corpus.
const raceBuild = true
