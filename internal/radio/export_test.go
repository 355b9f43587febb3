package radio

// Test-only exports for the external test package.

// RaceEnabled reports a -race build (see race_on_test.go).
const RaceEnabled = raceEnabled

// HideDormancy wraps alg so the engine sees every node as awake (see
// hideDormancy).
func HideDormancy(alg Algorithm) Algorithm { return hideDormancy{alg} }

// HideBulk wraps alg so the engine sees no BulkStepper (see hideBulk).
func HideBulk(alg Algorithm) Algorithm { return hideBulk{alg} }

// HideCohort wraps alg so the engine sees no CohortMember (see hideCohort).
func HideCohort(alg Algorithm) Algorithm { return hideCohort{alg} }
