"""Invariant Hermitian metrics: construction, positivity, torsion forms, classification.

The fundamental form in the (1,0)-coframe is

    2*omega = i r2 phi^{1 1b} + i s2 phi^{2 2b} + i t2 phi^{3 3b}
              + u phi^{1 2b} - conj(u) phi^{2 1b}
              + v phi^{2 3b} - conj(v) phi^{3 2b}
              + z phi^{1 3b} - conj(z) phi^{3 1b},

and the sign conventions are pinned in docs/conventions.md:
omega(x, y) = g(x, J y) with J phi_a = -i phi_a, so the Hermitian block is
g(phi_a, phi_bbar) = -i Omega_ab with Omega the coefficient matrix above,
which is positive-definite exactly when the stated inequalities hold.

The classification reads the torsion forms the connections use.  T and C are
d(omega) with every entry multiplied by +-i, so d(omega) = 0 exactly when C = 0
(Kahler).  The Lee form is a nonzero multiple of the g^{-1}-trace
theta_k = sum_{a,b} g^{ab} C_{bak}, and the metric is balanced exactly when it
vanishes (M. L. Michelsohn, On the existence of special metrics in complex
geometry, Acta Math. 149, 1982).  T is the Bismut torsion 3-form, and the metric
is pluriclosed exactly when dT = 0 (J.-M. Bismut, A local index theorem for
non-Kahler manifolds, Math. Ann. 284, 1989).  The last identity needs an
integrable structure, c_{ij}^{kb} = 0 for unbarred i, j, k, as every catalog
structure is: then d = del + delbar on forms with del^2 = delbar^2 = 0,
T = i(del omega - delbar omega) and dT = -2i del delbar omega.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import LieAlgebraCx, d_is_zero, exterior_d
from .scalars import I, GaussianRational, Rat, gr, rat_from_str
from .tensors import (
    DIM,
    _G_BLOCK,
    MultiTensor,
    _arrays,
    _cmatmul,
    _lowest_terms,
    _tensor,
    all_indices,
    inverse,
    is_barred,
)

__all__ = [
    "MetricParams",
    "MetricValidationError",
    "HermitianData",
    "build_metric",
    "torsion_forms",
    "MetricClassification",
    "classify_metric",
    "j_factor",
]

_MINUS_I = GaussianRational(0, -1)


def j_factor(idx: int) -> GaussianRational:
    """Eigenvalue of the complex structure on a frame vector, as used by the
    torsion forms: -i on the unbarred frame, +i on the barred frame.

    This orientation is pinned jointly with omega(x, y) = g(x, Jy) by the
    golden component tables and by the structural characterizations of the
    named connections (see docs/conventions.md); flipping it relabels the
    torsion forms as (-T, -C) and misplaces the Chern point.
    """
    return I if is_barred(idx) else _MINUS_I


class MetricValidationError(ValueError):
    """Raised when metric parameters violate a positivity constraint."""

    def __init__(self, constraint: str):
        super().__init__(f"invalid Hermitian metric: violated {constraint}")
        self.constraint = constraint


@dataclass(frozen=True)
class MetricParams:
    """Coefficients (r2, s2, t2, u, v, z) of the generic invariant Hermitian form."""

    r2: Rat
    s2: Rat
    t2: Rat
    u: GaussianRational
    v: GaussianRational
    z: GaussianRational

    @classmethod
    def make(cls, r2="1", s2="1", t2="1", u="0", v="0", z="0") -> "MetricParams":
        def as_rat(x):
            return rat_from_str(x) if isinstance(x, str) else Rat(x)

        return cls(as_rat(r2), as_rat(s2), as_rat(t2), gr(u), gr(v), gr(z))

    def constraint_failures(self):
        """Names of the positivity constraints this parameter set violates, in order.

        Sign tests on the parameters cleared to integers: each inequality is
        homogeneous of degree 1, 2 or 3, so multiplying it by a power of d > 0
        keeps it.
        """
        c = _cleared(self)[0]
        return _failures(c, _determinant(c))


def _failures(c, det):
    """The constraint_failures of the cleared parts c, whose _determinant is det."""
    r, s, t, ur, ui, vr, vi, zr, zi = c
    tests = (
        (r > 0, "r2 > 0"),
        (s > 0, "s2 > 0"),
        (t > 0, "t2 > 0"),
        (r * s > ur * ur + ui * ui, "r2*s2 > |u|^2"),
        (r * t > zr * zr + zi * zi, "r2*t2 > |z|^2"),
        (s * t > vr * vr + vi * vi, "s2*t2 > |v|^2"),
        (det > 0, "r2*s2*t2 + 2*Re(i*conj(u)*conj(v)*z) > t2*|u|^2 + r2*|v|^2 + s2*|z|^2"),
    )
    return [name for ok, name in tests if not ok]


def _cleared(p: MetricParams):
    """(c, d): r2, s2, t2, Re u, Im u, Re v, Im v, Re z, Im z as the Python ints c over
    their least common denominator d."""
    return _lowest_terms((p.r2, p.s2, p.t2, p.u.re, p.u.im, p.v.re, p.v.im, p.z.re, p.z.im))


def _determinant(c) -> int:
    """d^3 det_scaled = rst - r|v|^2 - s|z|^2 - t|u|^2 + 2 Re(i conj(u) conj(v) z), cleared."""
    r, s, t, ur, ui, vr, vi, zr, zi = c
    # w = u v, and Re(i conj(w) z) = Im(w) Re(z) - Re(w) Im(z)
    wr, wi = ur * vr - ui * vi, ur * vi + ui * vr
    return (r * s * t - r * (vr * vr + vi * vi) - s * (zr * zr + zi * zi) - t * (ur * ur + ui * ui)
            + 2 * (wi * zr - wr * zi))


@dataclass(frozen=True)
class HermitianData:
    """A validated invariant Hermitian structure: g, its inverse, and omega."""

    params: MetricParams
    g: MultiTensor
    g_inv: MultiTensor
    omega: MultiTensor
    det_scaled: GaussianRational


def build_metric(p: MetricParams) -> HermitianData:
    """Validate the positivity constraints and assemble g, g^{-1}, and omega.

    Raises MetricValidationError naming the first violated inequality.  With
    the parameters cleared to integers over d, 2d Omega is a Gaussian-integer
    matrix, so omega and g = -i Omega (omega(x, y) = g(x, Jy) with
    J phi_a = -i phi_a) are written as its numerators in lowest terms, over 2d or d.
    """
    c, d = _cleared(p)
    det = _determinant(c)
    bad = _failures(c, det)
    if bad:
        raise MetricValidationError(bad[0])

    (r, s, t, ur, ui, vr, vi, zr, zi), den = _lowest_terms(c, 2 * d)
    om = ((0, r), (ur, ui), (zr, zi),  # den Omega[a][b] as (re, im), in _G_BLOCK's order
          (-ur, ui), (0, s), (vr, vi),
          (-zr, zi), (-vr, vi), (0, t))
    ore, oim, gre, gim = [0] * 36, [0] * 36, [0] * 36, [0] * 36
    for (x, y), (_, _, n, m) in zip(om, _G_BLOCK):  # n, m: the offsets of (a, bbar), (bbar, a)
        ore[n], oim[n], ore[m], oim[m] = x, y, -x, -y
        gre[n] = gre[m] = y  # -i (x + y i) = y - x i
        gim[n] = gim[m] = -x
    omega = MultiTensor.from_numerators(2, ore, oim, den)
    g = MultiTensor.from_numerators(2, gre, gim, den)
    return HermitianData(p, g, inverse(g), omega, GaussianRational(Rat(det, d ** 3)))


# the sign s in T = s i d(omega) (row 0) and in C = s i d(omega) (row 1), per flat
# offset (i0, i1, i2)
_SIGNS = np.array([[1 if is_barred(i0) ^ is_barred(i1) ^ is_barred(i2) else -1
                    for i0, i1, i2 in all_indices(3)],
                   [1 if is_barred(i0) else -1 for i0, _, _ in all_indices(3)]])


def torsion_forms(h: HermitianData, alg: LieAlgebraCx):
    """The torsion 3-forms of the connection family.

    T(x, y, z) = -d(omega)(Jx, Jy, Jz) and C(x, y, z) = d(omega)(Jx, y, z),
    with J acting as multiplication by +/- i on the frame.  T is fully skew;
    C is skew only in its last two slots.  As j_factor(i) = s_i * i with s_i = +/-1,
    T = s_0 s_1 s_2 * i d(omega) and C = s_0 * i d(omega): a swap of parts, up to sign.
    """
    domega = exterior_d(h.omega, alg)
    z, _ = _arrays(domega)
    # s i (a + b i) = -s b + s a i on the numerators, with the sign s of each entry
    iz = np.stack((-z[1], z[0]))
    return tuple(_tensor(3, signs * iz, domega.den) for signs in _SIGNS)


@dataclass(frozen=True)
class MetricClassification:
    kahler: bool
    balanced: bool
    pluriclosed: bool

    def as_dict(self):
        return {"kahler": self.kahler, "balanced": self.balanced, "pluriclosed": self.pluriclosed}


def classify_metric(h: HermitianData, alg: LieAlgebraCx, forms=None) -> MetricClassification:
    """Kahler (C = 0), balanced (sum_{a,b} g^{ab} C_{bak} = 0), pluriclosed (dT = 0).

    Zero tests on the numerators of (T, C) = forms, torsion_forms(h, alg) when
    forms is not given (a caller that holds them passes them): C is i d(omega)
    up to sign per entry, the trace is the Lee form up to a factor (Michelsohn
    1982), and on an integrable structure (c_{ij}^{kb} = 0 for unbarred i, j, k)
    dT = -2i del delbar omega for the Bismut torsion T (Bismut 1989); the module
    docstring gives the full references.
    """
    t, c = forms or torsion_forms(h, alg)
    if c.is_zero():
        return MetricClassification(True, True, True)
    # the Lee trace theta_k = sum_{a,b} g^{ab} C_{bak}: g^{-1} as the 36-vector of
    # (a, b) times C with rows (a, b), 2 x 36 real products per entry
    (zc, mc), (zi, mi) = _arrays(c), _arrays(h.g_inv)
    zc = zc.reshape(2, DIM, DIM, DIM).transpose(0, 2, 1, 3).reshape(2, 36, DIM)
    lee = _cmatmul(zi.reshape(2, 1, 36), zc, mc.bit_length() + mi.bit_length(), 72)
    return MetricClassification(False, not lee.any(), d_is_zero(t, alg))
