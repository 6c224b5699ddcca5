// Package nanflowfix exercises the nanflow rule: a float produced by an
// unguarded division (or an unproven math call) that reaches an ordered
// comparison or an error-budget accumulator is flagged at the producer.
// Divisions with provably-nonzero denominators, values the function
// explicitly NaN-checks, and taint killed by reassignment stay clean.
package nanflowfix

import (
	"math"

	"treecode/internal/obs"
)

type level struct {
	Budget float64
}

type rollup struct {
	BudgetPred float64
	BudgetReal float64
}

func unguardedToComparison(a, b float64) bool {
	r := a / b // WANT nanflow
	return r > 0.5
}

func guardedByBailout(a, b float64) bool { // clean: zero denominator bailed out
	if b == 0 {
		return false
	}
	r := a / b
	return r > 0.5
}

func guardedByBranch(a, b float64) bool { // clean: division dominated by b != 0
	if b != 0 {
		return a/b > 0.5
	}
	return false
}

func constantDenominator(a float64) bool { // clean: the denominator cannot be zero
	return a/3 > 0.5
}

func conversionGuard(sum float64, n int) bool { // clean: guard seen through float64(n)
	if n == 0 {
		return false
	}
	return sum/float64(n) > 0.5
}

func checkedVariable(a, b float64) bool { // clean: the function has a NaN story for r
	r := a / b
	if math.IsNaN(r) {
		return false
	}
	return r > 0.5
}

func taintDiesOnReassign(a, b float64) bool { // clean: r is overwritten before the sink
	r := a / b
	r = 1
	return r > 0.5
}

func noSinkNoFinding(a, b float64) float64 { // clean: never compared or accumulated
	return a / b
}

func budgetAccumulator(l *level, pred, slack float64) {
	e := pred / slack // WANT nanflow
	l.Budget += e
}

func timeSeriesPredAccumulator(r *rollup, pred, norm float64) {
	e := pred / norm // WANT nanflow
	r.BudgetPred += e
}

func timeSeriesRealAccumulator(r *rollup, drift, norm float64) {
	e := drift / norm // WANT nanflow
	r.BudgetReal += e
}

func guardedTimeSeriesAccumulator(r *rollup, pred, norm float64) { // clean: nonzero norm dominates
	if norm == 0 {
		return
	}
	r.BudgetPred += pred / norm
}

func blockStructArg(c *obs.Collector, stale, dt float64) {
	e := stale / dt // WANT nanflow
	c.AddBlock(obs.BlockMetrics{Staleness: e})
}

func stepInfoStructArg(c *obs.Collector, mk obs.StepMark, bound, norm float64) {
	b := bound / norm // WANT nanflow
	c.StepEnd(mk, obs.StepInfo{RefitKind: "refit", BudgetReal: b, N: 1})
}

func cleanBlock(c *obs.Collector, substeps int64) { // clean: no tainted field
	c.AddBlock(obs.BlockMetrics{Substeps: substeps})
}

func flowsThroughAbs(a, b float64) bool {
	d := a / b // WANT nanflow
	return math.Abs(d) > 1e-9
}

func taintThroughArithmetic(a, b, c float64) bool {
	d := a / b // WANT nanflow
	e := d + c
	return e > 0
}

func unprovenSqrt(x float64) bool {
	r := math.Sqrt(x) // WANT mathdomain nanflow
	return r > 2
}

func floorGuard(num, den float64) bool { // clean: math.Max floors the denominator
	return num/math.Max(1e-12, den) > 0.5
}
