// Rotation-accelerated translation operators: align the shift with +z,
// shift axially (O(p^3)), rotate back. Every rotation goes through
// rotation.RotateY, which factors through constant d(pi/2) tables and so
// needs no per-angle plan; a rotation.Plan carries only a degree and an
// angle, and a nil plan costs nothing. M2L is the production operator of
// this kind (Local.AccumulateM2L, the M2L of every FMM interaction list),
// and M2LRot is M2L. The M2M and L2L forms here are mathematically
// identical to the segmented convolutions of multipole.go, which stay the
// production M2M and L2L (bitwise pinned by oracle_test.go); these remain
// a tested second derivation and the benchmark's m2m_rot probes.
package multipole

import (
	"treecode/internal/rotation"
	"treecode/internal/vec"
)

// TranslateRot is Translate (M2M) via rotation + axial shift. plan may be
// nil (one is built for this shift's polar angle) or a plan constructed
// with rotation.NewPlan(maxDegree, theta) where theta is the polar angle of
// the shift vector — e.Center-newCenter here, center-e.Center for M2LRot,
// newCenter-l.Center for the local TranslateRot.
func (e *Expansion) TranslateRot(newCenter vec.V3, pOut int, plan *rotation.Plan) *Expansion {
	out := NewExpansion(newCenter, pOut)
	out.AbsCharge = e.AbsCharge
	t := e.Center.Sub(newCenter)
	r, theta, phi := t.Spherical()
	out.Radius = e.Radius + r
	if r == 0 {
		n := len(out.Coeff)
		if len(e.Coeff) < n {
			n = len(e.Coeff)
		}
		copy(out.Coeff[:n], e.Coeff[:n])
		return out
	}
	if plan == nil || plan.P < e.Degree {
		plan = rotation.NewPlan(e.Degree, theta)
	}
	tmp := append([]complex128(nil), e.Coeff...)
	// Align t with +z: rotate sources by Ry(-theta) Rz(-phi).
	rotation.RotateZ(tmp, e.Degree, -phi, rotation.Multipole)
	plan.RotateY(tmp, e.Degree, rotation.Multipole, true)
	// Shift along +z.
	rotation.AxialM2M(out.Coeff, pOut, tmp, e.Degree, r)
	// Rotate back: Rz(phi) Ry(theta).
	plan.RotateY(out.Coeff, pOut, rotation.Multipole, false)
	rotation.RotateZ(out.Coeff, pOut, phi, rotation.Multipole)
	return out
}

// M2LRot is M2L, which converts by rotation itself. plan is not read; the
// parameter stays only until the benchmark's kernel probe, which passes
// one, changes.
func (e *Expansion) M2LRot(center vec.V3, pOut int, plan *rotation.Plan) *Local {
	return e.M2L(center, pOut)
}

// TranslateRot is Translate (L2L) via rotation + axial shift.
func (l *Local) TranslateRot(newCenter vec.V3, pOut int, plan *rotation.Plan) *Local {
	out := NewLocal(newCenter, pOut)
	w := newCenter.Sub(l.Center)
	r, theta, phi := w.Spherical()
	if r == 0 {
		n := len(out.Coeff)
		if len(l.Coeff) < n {
			n = len(l.Coeff)
		}
		copy(out.Coeff[:n], l.Coeff[:n])
		return out
	}
	if plan == nil || plan.P < l.Degree {
		plan = rotation.NewPlan(l.Degree, theta)
	}
	tmp := append([]complex128(nil), l.Coeff...)
	rotation.RotateZ(tmp, l.Degree, -phi, rotation.Local)
	plan.RotateY(tmp, l.Degree, rotation.Local, true)
	rotation.AxialL2L(out.Coeff, pOut, tmp, l.Degree, r)
	plan.RotateY(out.Coeff, pOut, rotation.Local, false)
	rotation.RotateZ(out.Coeff, pOut, phi, rotation.Local)
	return out
}
