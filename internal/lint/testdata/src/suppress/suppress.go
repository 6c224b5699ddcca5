// Package suppressfix exercises //lint:ignore handling: a suppression with
// a reason silences the finding and is counted; a reasonless suppression is
// itself a finding and silences nothing.
package suppressfix

func eqWithReason(a, b float64) bool {
	return a == b //lint:ignore floatcmp fixture: documented exact comparison
}

// The next-line form covers the following line.
func eqNextLine(a, b float64) bool {
	//lint:ignore floatcmp fixture: standalone comment covers the next line
	return a == b
}

func eqMissingReason(a, b float64) bool {
	return a == b //lint:ignore floatcmp
}

// Suppressions work for the CFG-based rule too: the callers' invariant
// keeps this division from producing NaN.
func ratioAboveHalf(a, extent float64) bool {
	//lint:ignore nanflow fixture: callers pass a positive extent
	r := a / extent
	return r > 0.5
}
