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

import itertools
from dataclasses import dataclass

from .algebra import LieAlgebraCx, d_component, d_is_zero, exterior_d, wedge
from .scalars import I, GaussianRational, Rat, gr, rat_from_str
from .tensors import INDICES, MultiTensor, _trace, all_indices, inverse, is_barred

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

_HALF = Rat(1, 2)
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
        """Names of the positivity constraints this parameter set violates."""
        r2, s2, t2, u, v, z = self.r2, self.s2, self.t2, self.u, self.v, self.z
        bad = []
        if not r2 > 0:
            bad.append("r2 > 0")
        if not s2 > 0:
            bad.append("s2 > 0")
        if not t2 > 0:
            bad.append("t2 > 0")
        if not r2 * s2 > u.abs2():
            bad.append("r2*s2 > |u|^2")
        if not r2 * t2 > z.abs2():
            bad.append("r2*t2 > |z|^2")
        if not s2 * t2 > v.abs2():
            bad.append("s2*t2 > |v|^2")
        if not determinant_scaled(self).re > 0:
            bad.append("r2*s2*t2 + 2*Re(i*conj(u)*conj(v)*z) > t2*|u|^2 + r2*|v|^2 + s2*|z|^2")
        return bad


def determinant_scaled(p: MetricParams) -> GaussianRational:
    """8*i*det(Omega) = r2 s2 t2 - r2|v|^2 - s2|z|^2 - t2|u|^2 + 2 Re(i conj(u) conj(v) z)."""
    triple = I * p.u.conjugate() * p.v.conjugate() * p.z
    value = (p.r2 * p.s2 * p.t2
             - p.r2 * p.v.abs2()
             - p.s2 * p.z.abs2()
             - p.t2 * p.u.abs2()
             + 2 * triple.re)
    return GaussianRational(value)


def _omega_matrix(p: MetricParams):
    """The 3x3 coefficient matrix Omega with omega(phi_a, phi_bbar) = Omega[a][b]."""
    ih = GaussianRational(0, _HALF)
    half = GaussianRational(_HALF)
    return [
        [ih * gr(p.r2), half * p.u, half * p.z],
        [-half * p.u.conjugate(), ih * gr(p.s2), half * p.v],
        [-half * p.z.conjugate(), -half * p.v.conjugate(), ih * gr(p.t2)],
    ]


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

    Raises MetricValidationError naming the first violated inequality.
    """
    bad = p.constraint_failures()
    if bad:
        raise MetricValidationError(bad[0])

    om = _omega_matrix(p)

    omega = MultiTensor(2)
    g = MultiTensor(2)
    for a in range(3):
        for b in range(3):
            w = om[a][b]
            if w.is_zero():
                continue
            omega[a, b + 3] = w
            omega[b + 3, a] = -w
            gv = _MINUS_I * w  # omega(x, y) = g(x, Jy) with J phi_a = -i phi_a
            g[a, b + 3] = gv
            g[b + 3, a] = gv
    return HermitianData(p, g, inverse(g), omega, determinant_scaled(p))


# the sign s in T = s i d(omega) and in C = s i d(omega), per flat offset (i0, i1, i2)
_T_SIGNS = [1 if is_barred(i0) ^ is_barred(i1) ^ is_barred(i2) else -1
            for i0, i1, i2 in all_indices(3)]
_C_SIGNS = [1 if is_barred(i0) else -1 for i0, _, _ in all_indices(3)]


def torsion_forms(h: HermitianData, alg: LieAlgebraCx):
    """The torsion 3-forms of the connection family.

    T(x, y, z) = -d(omega)(Jx, Jy, Jz) and C(x, y, z) = d(omega)(Jx, y, z),
    with J acting as multiplication by +/- i on the frame.  T is fully skew;
    C is skew only in its last two slots.  As j_factor(i) = s_i * i with s_i = +/-1,
    T = s_0 s_1 s_2 * i d(omega) and C = s_0 * i d(omega): a swap of parts, up to sign.
    """
    domega = exterior_d(h.omega, alg)
    # s i (a + b i) = -s b + s a i on the numerators, with the sign s of each entry
    return tuple(MultiTensor.from_numerators(3, [-s * b for s, b in zip(signs, domega.im)],
                                             [s * a for s, a in zip(signs, domega.re)], domega.den)
                 for signs in (_T_SIGNS, _C_SIGNS))


# the Lee trace theta_k = sum_{a,b} g^{ab} C_{bak}: C at 36 b + 6 a + k, g^{-1} at 6 a + b
_LEE_PAIRS = [(36 * b + 6 * a, 6 * a + b) for a in INDICES for b in INDICES]


@dataclass(frozen=True)
class MetricClassification:
    kahler: bool
    balanced: bool
    pluriclosed: bool

    def as_dict(self):
        return {"kahler": self.kahler, "balanced": self.balanced, "pluriclosed": self.pluriclosed}


def classify_metric(h: HermitianData, alg: LieAlgebraCx) -> MetricClassification:
    """Kahler (C = 0), balanced (sum_{a,b} g^{ab} C_{bak} = 0), pluriclosed (dT = 0).

    Zero tests on the numerators of (T, C) = torsion_forms(h, alg): C is i d(omega)
    up to sign per entry, the trace is the Lee form up to a factor (Michelsohn
    1982), and on an integrable structure (c_{ij}^{kb} = 0 for unbarred i, j, k)
    dT = -2i del delbar omega for the Bismut torsion T (Bismut 1989); the module
    docstring gives the full references.
    """
    t, c = torsion_forms(h, alg)
    if c.is_zero():
        return MetricClassification(True, True, True)
    lee = _trace(c, 1, _LEE_PAIRS, h.g_inv, rank=1)
    return MetricClassification(False, lee.is_zero(), d_is_zero(t, alg))


def balanced_via_omega_squared(h: HermitianData, alg: LieAlgebraCx) -> bool:
    """Independent balanced test: d(omega ^ omega) = 0."""
    omega2 = wedge(h.omega, h.omega)
    return all(
        d_component(omega2, alg, idx).is_zero()
        for idx in itertools.combinations(INDICES, 5)
    )
