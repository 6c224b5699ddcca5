// Package bounds implements the paper's error analysis: the per-interaction
// truncation bounds (Theorems 1 and 2), the geometric constants that bound
// the number of same-size interactions (Lemmas 1 and 2), the adaptive degree
// selection rule (Theorem 3), and the resulting aggregate error and
// complexity predictions.
//
// # Summary of the analysis
//
// Theorem 1 (Greengard & Rokhlin): a degree-p multipole expansion of a
// cluster with total absolute charge A inside radius a, evaluated at
// distance r > a, errs by at most A/(r-a) * (a/r)^{p+1}.
//
// Theorem 2: under the alpha-criterion a/r <= alpha < 1, the bound becomes
// A * alpha^{p+1} / (r(1-alpha)): the error of each interaction grows
// linearly with the cluster's net charge. Summed over a uniform-density
// domain this makes the fixed-degree Barnes-Hut aggregate error grow with
// the total system charge.
//
// Lemma 1: if a particle interacts with a box of size s (and therefore did
// not interact with its size-2s parent), the distance d to the box satisfies
//
//	s/alpha <= d <= s*(2/alpha + sqrt(3)/2).
//
// Lemma 2: consequently all size-s boxes a particle interacts with lie in a
// spherical annulus whose volume is a constant multiple of s^3, so their
// number is bounded by a constant K(alpha) independent of s and n.
//
// Theorem 3: choosing the degree of a cluster C so that its worst-case
// Theorem-2 bound equals that of a fixed reference cluster (the smallest-
// charge deepest-level cluster at degree pMin) keeps every interaction's
// error below a common constant:
//
//	p(C) = pMin + ceil( log_{1/alpha}( (A_C/A_ref) * (s_ref/s_C) ) )
//
// (sizes enter through the 1/(r-a) factor at the worst-case distance
// r = a/alpha). With Lemma 2 and tree height l = O(log n), the aggregate
// error becomes O(log n) instead of O(total charge), while the extra cost
// stays within a small constant of the fixed-degree method.
package bounds

import (
	"math"
	"sync/atomic"

	"treecode/internal/legendre"
)

// InteractionBound is the Theorem 1 truncation bound A/(r-a) * (a/r)^{p+1}.
// It returns +Inf when r <= a.
func InteractionBound(A, a, r float64, p int) float64 {
	if r <= a {
		return math.Inf(1)
	}
	return A / (r - a) * math.Pow(a/r, float64(p+1))
}

// AlphaBound is the Theorem 2 worst-case form of the bound under the
// alpha-criterion a/r <= alpha: A * alpha^{p+1} / (r(1-alpha)). The
// integer power is taken by binary exponentiation, not math.Pow: the traced
// evaluator calls this once per accepted interaction.
func AlphaBound(A, r, alpha float64, p int) float64 {
	if alpha <= 0 || alpha >= 1 || r <= 0 {
		return math.Inf(1)
	}
	pow := 1.0
	for x, n := alpha, p+1; n > 0; n >>= 1 {
		if n&1 == 1 {
			pow *= x
		}
		x *= x
	}
	return A * pow / (r * (1 - alpha))
}

// WorstCaseBound is the Theorem 2 bound at the closest admissible distance
// r = a/alpha, the distance the alpha-criterion just barely accepts:
// A * alpha^{p+2} / (a(1-alpha)). This is the quantity Theorem 3 equalizes.
func WorstCaseBound(A, a, alpha float64, p int) float64 {
	if alpha <= 0 || alpha >= 1 || a <= 0 {
		return math.Inf(1)
	}
	return A * math.Pow(alpha, float64(p+2)) / (a * (1 - alpha))
}

// DistanceRatio is the Lemma 1 range of d/s for accepted interactions with
// size-s boxes under the (box-form) alpha-criterion.
func DistanceRatio(alpha float64) (lo, hi float64) {
	return 1 / alpha, 2/alpha + math.Sqrt(3)/2
}

// DistanceRatioChargeCenter is the Lemma 1 range when distances are
// measured to cluster charge centers (as this implementation and the paper's
// code do) rather than geometric box centers. The lower limit is unchanged
// (it is the acceptance criterion itself); the upper limit replaces the
// sqrt(3)/2 center-to-center offset with the parent-box diameter 2*sqrt(3)*s,
// since the two charge centers may sit in opposite corners of the rejected
// parent box.
func DistanceRatioChargeCenter(alpha float64) (lo, hi float64) {
	return 1 / alpha, 2/alpha + 2*math.Sqrt(3)
}

// MaxInteractionsPerSize is the Lemma 2 constant K(alpha): an upper bound on
// the number of size-s boxes any one particle interacts with, for any s.
// It is the volume of the annulus containing those boxes (the Lemma 1 shell
// widened by one box half-diagonal on each side) divided by the box volume.
func MaxInteractionsPerSize(alpha float64) float64 {
	lo, hi := DistanceRatio(alpha)
	h := math.Sqrt(3) / 2 // half-diagonal of a unit box
	outer := hi + h
	inner := lo - h
	if inner < 0 {
		inner = 0
	}
	return 4 * math.Pi / 3 * (outer*outer*outer - inner*inner*inner)
}

// DegreeSelector chooses per-cluster multipole degrees. The zero value is
// not usable; construct with NewDegreeSelector.
type DegreeSelector struct {
	Alpha float64 // acceptance parameter, 0 < alpha < 1
	PMin  int     // degree of the reference (smallest) cluster
	PMax  int     // clamp for pathological clusters (unstructured domains)

	ARef float64 // reference cluster absolute charge
	SRef float64 // reference cluster size (box edge or radius; be consistent)

	// clamps counts Degree results limited by the StabilityCap — requests
	// for degrees the float64 Legendre recurrences cannot deliver, i.e.
	// silent accuracy loss. Atomic so concurrent selections stay countable.
	clamps atomic.Int64
}

// NewDegreeSelector returns a Theorem 3 selector. aRef and sRef describe the
// reference cluster: the smallest-net-charge cluster at the deepest tree
// level, which keeps its original degree pMin. pMax caps growth (the paper's
// option 1 for unstructured domains stores higher-degree multipoles only up
// to need; a cap keeps worst cases affordable).
func NewDegreeSelector(alpha float64, pMin, pMax int, aRef, sRef float64) *DegreeSelector {
	if pMax < pMin {
		pMax = pMin
	}
	return &DegreeSelector{Alpha: alpha, PMin: pMin, PMax: pMax, ARef: aRef, SRef: sRef}
}

// Degree returns the degree for a cluster with absolute charge A and size s
// (same size convention as SRef):
//
//	p = pMin + ceil( ln((A/ARef) * (SRef/s)) / ln(1/alpha) )
//
// clamped to [PMin, PMax]. Clusters no heavier than the reference keep PMin.
func (d *DegreeSelector) Degree(A, s float64) int {
	if A <= 0 || s <= 0 || d.ARef <= 0 || d.SRef <= 0 || d.Alpha <= 0 || d.Alpha >= 1 {
		return d.PMin
	}
	ratio := (A / d.ARef) * (d.SRef / s)
	if ratio <= 1 {
		return d.PMin
	}
	extra := math.Log(ratio) / math.Log(1/d.Alpha)
	p := d.PMin + int(math.Ceil(extra-1e-12))
	if p > d.PMax {
		p = d.PMax
	}
	if limit := d.StabilityCap(); p > limit {
		p = limit
		d.clamps.Add(1)
	}
	if p < d.PMin {
		p = d.PMin
	}
	return p
}

// StabilityCap returns the largest degree Degree may return: the float64
// accuracy limit of the Legendre recurrences (legendre.MaxAccurateDegree),
// unless PMin itself exceeds it — an explicit user floor is honored, since
// Degree never returns less than PMin.
func (d *DegreeSelector) StabilityCap() int {
	if d.PMin > legendre.MaxAccurateDegree {
		return d.PMin
	}
	return legendre.MaxAccurateDegree
}

// ClampCount returns how many Degree calls were clamped at the stability
// cap so far. The evaluators surface this through the observability
// metrics: a non-zero count means the error model asked for accuracy the
// arithmetic cannot deliver.
func (d *DegreeSelector) ClampCount() int64 { return d.clamps.Load() }

// UniformGrowthPerLevel returns the Theorem 3 degree increment per tree
// level for a uniform charge density: net charge grows 8x and size 2x per
// level upward, so the ratio A/s grows 4x and
//
//	c = ln(4) / ln(1/alpha).
func UniformGrowthPerLevel(alpha float64) float64 {
	if alpha <= 0 || alpha >= 1 {
		return math.NaN()
	}
	return math.Log(4) / math.Log(1/alpha)
}

// PredictAggregateError bounds the aggregate (per-point) error of the
// improved method on a height-l tree: at most K(alpha) interactions per size
// class, l+1 size classes, each erring at most the reference worst-case
// bound — so error = O(l) = O(log n) with constant K * WorstCaseBound(ref).
func PredictAggregateError(alpha float64, pMin int, aRef, sRef float64, height int) float64 {
	perInteraction := WorstCaseBound(aRef, sRef, alpha, pMin)
	return MaxInteractionsPerSize(alpha) * float64(height+1) * perInteraction
}

// ComplexityRatio predicts the cost ratio new/original for a uniform
// distribution at acceptance parameter alpha: per particle, each of the l+1
// size classes contributes up to K interactions; the original spends
// (p+1)^2 terms each, the improved (p + c*j + 1)^2 at j levels above the
// leaves, with c = UniformGrowthPerLevel(alpha).
//
// This is a pessimistic model: it assumes every size class contributes
// equally many interactions, whereas near the top of the tree boxes are too
// large to be accepted anywhere inside the domain, so the expensive
// highest-degree classes are underpopulated in practice (the measured term
// ratios in the Table 1 reproduction are far closer to 1).
func ComplexityRatio(alpha float64, pMin, height int) float64 {
	return ComplexityRatioWithGrowth(UniformGrowthPerLevel(alpha), pMin, height)
}

// ComplexityRatioWithGrowth is ComplexityRatio for an explicit per-level
// degree growth c. The paper's headline constant comes out of this formula:
// with c = 1/2 and height l = 2(p+1) the ratio approaches exactly 7/3
// (degrees double from leaf to root; integrate ((p+1)+x/2)^2 over 0..2(p+1)).
// Theorem 3's growth c = ln4/ln(1/alpha) equals 1/2 only for strongly
// separated criteria (alpha = 1/16); for practical alpha the model ratio is
// larger, and the measured ratio smaller — see EXPERIMENTS.md.
func ComplexityRatioWithGrowth(c float64, pMin, height int) float64 {
	var num, den float64
	for j := 0; j <= height; j++ {
		pj := float64(pMin) + c*float64(j)
		num += (pj + 1) * (pj + 1)
		den += float64(pMin+1) * float64(pMin+1)
	}
	return num / den
}

// DegreeForError returns the smallest degree p such that the Theorem 2
// worst-case bound for a cluster (A, a) falls below eps. Used to pick pMin
// from a target accuracy. The result is clamped to
// legendre.MaxAccurateDegree: a larger degree would not improve realized
// float64 accuracy, only cost more terms.
func DegreeForError(A, a, alpha, eps float64) int {
	if eps <= 0 || alpha <= 0 || alpha >= 1 || A <= 0 || a <= 0 {
		return 0
	}
	// A alpha^{p+2} / (a(1-alpha)) <= eps
	// (p+2) ln alpha <= ln(eps a (1-alpha)/A)
	t := math.Log(eps*a*(1-alpha)/A) / math.Log(alpha)
	p := int(math.Ceil(t)) - 2
	if p < 0 {
		p = 0
	}
	if p > legendre.MaxAccurateDegree {
		p = legendre.MaxAccurateDegree
	}
	return p
}
