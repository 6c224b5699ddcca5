// Rotation-accelerated translation operators. Each is mathematically
// identical to its O(p^4) counterpart in multipole.go but routes through
// internal/rotation: align the shift with +z, shift axially (O(p^3)),
// rotate back. Building a rotation Plan costs O(p^4) with the explicit
// Wigner sum, so the fast path pays off only when one plan is reused across
// translations with the same polar angle. Passing nil builds a plan per
// call, which never wins: the repository benchmark's cold-plan M2M probe
// costs 1,410-5,301 ns per term at p 8-13, against 79-213 for the
// convolution. Expansion centers are charge-weighted centroids, so the
// shifts of a tree almost never share an angle; the convolutions are the
// production operators, and these remain a tested reference and a
// benchmark probe.
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

// M2LRot is M2L via rotation + axial conversion. See TranslateRot for plan
// semantics (the plan's angle must be the polar angle of center-e.Center).
func (e *Expansion) M2LRot(center vec.V3, pOut int, plan *rotation.Plan) *Local {
	l := NewLocal(center, pOut)
	t := center.Sub(e.Center)
	r, theta, phi := t.Spherical()
	maxP := e.Degree
	if pOut > maxP {
		maxP = pOut
	}
	if plan == nil || plan.P < maxP {
		plan = rotation.NewPlan(maxP, theta)
	}
	tmp := append([]complex128(nil), e.Coeff...)
	rotation.RotateZ(tmp, e.Degree, -phi, rotation.Multipole)
	plan.RotateY(tmp, e.Degree, rotation.Multipole, true)
	rotation.AxialM2L(l.Coeff, pOut, tmp, e.Degree, r)
	plan.RotateY(l.Coeff, pOut, rotation.Local, false)
	rotation.RotateZ(l.Coeff, pOut, phi, rotation.Local)
	return l
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
