package pmf

// Test-only exports for the external pmf_test package, whose tests import
// packages (pet) that themselves import pmf.
var (
	RandomPMF       = randomPMF
	RandomSparsePMF = randomSparsePMF
)
