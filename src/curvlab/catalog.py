"""The catalog of invariant complex structures on six-dimensional Lie algebras.

Families (Np), (Ni), (Nii), (Niii) live on nilpotent algebras; (Si) through
(Sv) on solvable non-nilpotent algebras with holomorphically-trivial
canonical bundle; sl2c is the complex special linear algebra.  Each family
carries its parameter domain, the structure equations for d(phi^k), the
underlying real Lie algebra labels (metadata only), and the known loci of
special metrics (Kahler / balanced / pluriclosed) as exact predicates on
the metric and structure parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .algebra import LieAlgebraCx
from .metric import MetricParams
from .scalars import GaussianRational, I, gr

__all__ = [
    "FamilySpec",
    "FamilyDomainError",
    "MetricLocus",
    "FAMILY_IDS",
    "family_info",
    "instantiate",
    "special_metric_loci",
    "catalog_rows",
]

FAMILY_IDS = ("Np", "Ni", "Nii", "Niii", "Si", "Sii", "Siii1", "Siii2",
              "Siii3", "Siii4", "Siv1", "Siv2", "Siv3", "Sv", "sl2c")


class FamilyDomainError(ValueError):
    """Raised when family parameters fall outside the catalog domain."""

    def __init__(self, family: str, constraint: str):
        super().__init__(f"family {family}: parameter constraint violated: {constraint}")
        self.family = family
        self.constraint = constraint


@dataclass(frozen=True)
class FamilySpec:
    """A family id together with a concrete choice of structure parameters."""

    id: str
    params: dict = field(default_factory=dict)

    def param(self, name: str, default=None) -> GaussianRational:
        v = self.params.get(name, default)
        if v is None:
            raise FamilyDomainError(self.id, f"missing parameter {name!r}")
        return gr(v)

    @classmethod
    def make(cls, family_id: str, **params) -> "FamilySpec":
        return cls(family_id, {k: gr(v) for k, v in params.items()})


@dataclass(frozen=True)
class MetricLocus:
    """A special-metric locus: a predicate on MetricParams for one family point.

    ``iff`` records whether the predicate characterizes the metric class
    exactly (both directions testable) or is only a sufficient normal form.
    """

    family: str
    kind: str  # kahler | balanced | pluriclosed
    description: str
    predicate: Callable[[MetricParams], bool]
    iff: bool = True


def _is_choice(v: GaussianRational, *choices) -> bool:
    return any(v == gr(c) for c in choices)


def _real_nonneg(v: GaussianRational) -> bool:
    return v.im == 0 and v.re >= 0


# -- structure equations ------------------------------------------------------
# Wedge index pairs use the frame order (1, 2, 3, 1b, 2b, 3b) = (0..5).

def _dphi_np(p):
    rho = p.param("rho")
    return {2: {(0, 1): rho}}


def _dphi_ni(p):
    rho, lam, d = p.param("rho"), p.param("lambda"), p.param("D")
    return {2: {(0, 1): rho, (0, 3): gr(1), (0, 4): lam, (1, 4): d}}


def _dphi_nii(p):
    rho, b, c = p.param("rho"), p.param("B"), p.param("c")
    return {1: {(0, 3): gr(1)},
            2: {(0, 1): rho, (0, 4): b, (1, 3): c}}


def _dphi_niii(p):
    rho, sign = p.param("rho"), p.param("sign")
    return {1: {(0, 2): gr(1), (0, 5): gr(1)},
            2: {(0, 3): I * rho, (0, 4): I * sign, (1, 3): -(I * sign)}}


def _dphi_si(p):
    a = p.param("A")
    return {0: {(0, 2): a, (0, 5): a},
            1: {(1, 2): -a, (1, 5): -a}}


def _dphi_sii(p):
    x = p.param("x")
    half = gr("1/2")
    quarter_over_x = gr("1/4") / x
    return {1: {(0, 2): -half, (0, 5): -half - I * x, (2, 3): I * x},
            2: {(0, 1): half, (0, 4): half - I * quarter_over_x, (1, 3): I * quarter_over_x}}


def _dphi_siii1(p):
    sign = p.param("sign")
    return {0: {(0, 2): I, (0, 5): I},
            1: {(1, 2): -I, (1, 5): -I},
            2: {(0, 3): sign}}


def _dphi_siii2(p):
    one = gr(1)
    return {0: {(0, 2): one, (0, 5): one},
            1: {(1, 2): -one, (1, 5): -one},
            2: {(0, 4): one, (1, 3): one}}


def _dphi_siii3(p):
    return {0: {(0, 2): I, (0, 5): I},
            1: {(1, 2): -I, (1, 5): -I},
            2: {(0, 3): gr(1), (1, 4): gr(1)}}


def _dphi_siii4(p):
    sign = p.param("sign")
    return {0: {(0, 2): I, (0, 5): I},
            1: {(1, 2): -I, (1, 5): -I},
            2: {(0, 3): sign, (1, 4): -sign}}


def _dphi_siv1(p):
    return {0: {(0, 2): gr(-1)},
            1: {(1, 2): gr(1)}}


def _dphi_siv2(p):
    x = p.param("x")
    two_i = gr("2*i")
    return {0: {(0, 2): two_i, (2, 5): gr(1)},
            1: {(1, 2): -two_i, (2, 5): x}}


def _dphi_siv3(p):
    a = p.param("A")
    return {0: {(0, 2): a, (0, 5): gr(-1)},
            1: {(1, 2): -a, (1, 5): gr(1)}}


def _dphi_sv(p):
    half_i = gr("1/2*i")
    return {0: {(2, 5): gr(-1)},
            1: {(0, 1): half_i, (0, 5): gr("1/2"), (1, 3): -half_i},
            2: {(0, 2): -half_i, (2, 3): half_i}}


def _dphi_sl2c(p):
    return {0: {(1, 2): gr(1)},
            1: {(0, 2): gr(-1)},
            2: {(0, 1): gr(1)}}


# -- domain validation --------------------------------------------------------

def _check_np(p):
    if not _is_choice(p.param("rho"), 0, 1):
        raise FamilyDomainError("Np", "rho in {0, 1}")


def _check_ni(p):
    if not _is_choice(p.param("rho"), 0, 1):
        raise FamilyDomainError("Ni", "rho in {0, 1}")
    if not _real_nonneg(p.param("lambda")):
        raise FamilyDomainError("Ni", "lambda real with lambda >= 0")
    if not p.param("D").im >= 0:
        raise FamilyDomainError("Ni", "Im D >= 0")


def _check_nii(p):
    rho, b, c = p.param("rho"), p.param("B"), p.param("c")
    if not _is_choice(rho, 0, 1):
        raise FamilyDomainError("Nii", "rho in {0, 1}")
    if not _real_nonneg(c):
        raise FamilyDomainError("Nii", "c real with c >= 0")
    if rho.is_zero() and b.is_zero() and c.is_zero():
        raise FamilyDomainError("Nii", "(rho, B, c) != (0, 0, 0)")


def _check_niii(p):
    if not _is_choice(p.param("rho"), 0, 1):
        raise FamilyDomainError("Niii", "rho in {0, 1}")
    if not _is_choice(p.param("sign"), 1, -1):
        raise FamilyDomainError("Niii", "sign in {+1, -1}")


def _check_si(p):
    a = p.param("A")
    if a.abs2() != 1:
        raise FamilyDomainError("Si", "|A| = 1 (A = cos(theta) + i sin(theta))")
    if a.im < 0:
        raise FamilyDomainError("Si", "Im A >= 0 (theta in [0, pi))")
    if a == gr(-1):
        raise FamilyDomainError("Si", "A != -1 (theta in [0, pi))")


def _check_sii(p):
    x = p.param("x")
    if not (x.im == 0 and x.re > 0):
        raise FamilyDomainError("Sii", "x real with x > 0")


def _check_sign_only(family):
    def check(p):
        if not _is_choice(p.param("sign"), 1, -1):
            raise FamilyDomainError(family, "sign in {+1, -1}")
    return check


def _check_none(p):
    pass


def _check_siv2(p):
    if not _is_choice(p.param("x"), 0, 1):
        raise FamilyDomainError("Siv2", "x in {0, 1}")


def _check_siv3(p):
    if p.param("A").abs2() == 1:
        raise FamilyDomainError("Siv3", "|A| != 1")


# -- algebra labels (metadata only) -------------------------------------------

def _label_np(p):
    return "h1" if p.param("rho").is_zero() else "h5"


def _label_ni(p):
    rho, lam, d = p.param("rho"), p.param("lambda"), p.param("D")
    if rho.is_zero() and lam.is_zero():
        if d.is_zero():
            return "h8"
        if d == I:
            return "h2"
    return "h2..h6 or h8 (depends on (rho, lambda, D))"


def _label_si(p):
    a = p.param("A")
    if a == gr(1):
        return "g1"
    if a == I:
        return "g2^0"
    # alpha = cos(theta)/sin(theta) = Re A / Im A
    return f"g2^alpha, alpha={GaussianRational(a.re) / GaussianRational(a.im)}"


_TORUS_ALL = "any metric"


def _loci_np(p):
    rho = p.param("rho")
    if rho.is_zero():
        always = lambda m: True
        return [
            MetricLocus("Np", "kahler", _TORUS_ALL, always),
            MetricLocus("Np", "balanced", _TORUS_ALL, always),
            MetricLocus("Np", "pluriclosed", _TORUS_ALL, always),
        ]
    return [
        MetricLocus("Np", "kahler", "none", lambda m: False),
        MetricLocus("Np", "balanced", _TORUS_ALL, lambda m: True),
        MetricLocus("Np", "pluriclosed", "none", lambda m: False),
    ]


def _loci_ni(p):
    rho, lam, d = p.param("rho"), p.param("lambda"), p.param("D")

    def balanced(m):
        # scale-covariant form of: r2 = 1, v = z = 0, s2 + D = i conj(u) lambda
        if not (m.v.is_zero() and m.z.is_zero()):
            return False
        lhs = GaussianRational(m.s2) + d * GaussianRational(m.r2)
        return lhs == I * m.u.conjugate() * lam

    def pluriclosed(m):
        # structure-level condition rho + lambda^2 - (D + conj(D)) = 0
        return (rho + lam * lam - (d + d.conjugate())).is_zero()

    return [
        MetricLocus("Ni", "kahler", "none", lambda m: False),
        MetricLocus("Ni", "balanced",
                    "v = z = 0 and s2 + D r2 = i conj(u) lambda", balanced),
        MetricLocus("Ni", "pluriclosed",
                    "any metric iff rho + lambda^2 - 2 Re D = 0", pluriclosed),
    ]


def _loci_never(family):
    def loci(p):
        return [
            MetricLocus(family, "kahler", "none", lambda m: False),
            MetricLocus(family, "balanced", "none", lambda m: False),
            MetricLocus(family, "pluriclosed", "none", lambda m: False),
        ]
    return loci


def _loci_niii(p):
    rho = p.param("rho")

    def balanced(m):
        # normal form of the balanced class (v is free); the exact pointwise
        # variety is larger (e.g. purely imaginary u with v = 0), so this
        # locus is recorded as sufficient-only
        return rho.is_zero() and m.u.is_zero() and m.z.is_zero()

    return [
        MetricLocus("Niii", "kahler", "none", lambda m: False),
        MetricLocus("Niii", "balanced", "rho = 0 and u = z = 0 (normal form)",
                    balanced, iff=False),
        MetricLocus("Niii", "pluriclosed", "none", lambda m: False),
    ]


def _loci_si(p):
    a = p.param("A")
    diagonal = lambda m: m.u.is_zero() and m.v.is_zero() and m.z.is_zero()
    loci = [
        MetricLocus("Si", "balanced", "v = z = 0",
                    lambda m: m.v.is_zero() and m.z.is_zero()),
    ]
    if a == I:  # g2^0
        loci.insert(0, MetricLocus("Si", "kahler", "u = v = z = 0", diagonal))
        loci.append(MetricLocus("Si", "pluriclosed", "u = 0", lambda m: m.u.is_zero()))
    else:
        loci.insert(0, MetricLocus("Si", "kahler", "none", lambda m: False))
        loci.append(MetricLocus("Si", "pluriclosed", "none", lambda m: False))
    return loci


def _loci_sii(p):
    return [
        MetricLocus("Sii", "kahler", "none", lambda m: False),
        MetricLocus("Sii", "balanced", "u = z = 0",
                    lambda m: m.u.is_zero() and m.z.is_zero()),
        MetricLocus("Sii", "pluriclosed", "none", lambda m: False),
    ]


def _loci_siii1(p):
    return [
        MetricLocus("Siii1", "kahler", "none", lambda m: False),
        MetricLocus("Siii1", "balanced", "none", lambda m: False),
        MetricLocus("Siii1", "pluriclosed", "u = 0", lambda m: m.u.is_zero()),
    ]


def _loci_siii2(p):
    return [
        MetricLocus("Siii2", "kahler", "none", lambda m: False),
        MetricLocus("Siii2", "balanced", "v = z = 0 and u real",
                    lambda m: m.v.is_zero() and m.z.is_zero() and m.u.im == 0),
        MetricLocus("Siii2", "pluriclosed", "none", lambda m: False),
    ]


def _loci_siii4(p):
    return [
        MetricLocus("Siii4", "kahler", "none", lambda m: False),
        MetricLocus("Siii4", "balanced", "v = z = 0 and r2 = s2",
                    lambda m: m.v.is_zero() and m.z.is_zero() and m.r2 == m.s2),
        MetricLocus("Siii4", "pluriclosed", "none", lambda m: False),
    ]


def _loci_siv1(p):
    return [
        MetricLocus("Siv1", "kahler", "none", lambda m: False),
        MetricLocus("Siv1", "balanced", _TORUS_ALL, lambda m: True),
        MetricLocus("Siv1", "pluriclosed", "none", lambda m: False),
    ]


def _loci_siv3(p):
    return [
        MetricLocus("Siv3", "kahler", "none", lambda m: False),
        MetricLocus("Siv3", "balanced", "v = z = 0",
                    lambda m: m.v.is_zero() and m.z.is_zero()),
        MetricLocus("Siv3", "pluriclosed", "none", lambda m: False),
    ]


@dataclass(frozen=True)
class _FamilyDef:
    id: str
    params: tuple  # the names of the structure parameters the family takes
    param_doc: str
    algebras: str
    dphi: Callable
    check: Callable
    loci: Callable | None
    label: Callable | None = None


_FAMILIES = {
    "Np": _FamilyDef(
        "Np", ("rho",), "rho in {0,1}", "h1 (rho=0), h5 (rho=1)",
        _dphi_np, _check_np, _loci_np, _label_np),
    "Ni": _FamilyDef(
        "Ni", ("rho", "lambda", "D"), "rho in {0,1}; lambda real >= 0; D complex, Im D >= 0",
        "h2, h3, h4, h5, h6, h8",
        _dphi_ni, _check_ni, _loci_ni, _label_ni),
    "Nii": _FamilyDef(
        "Nii", ("rho", "B", "c"), "rho in {0,1}; B complex; c real >= 0; (rho,B,c) != (0,0,0)",
        "h7, h9..h16",
        _dphi_nii, _check_nii, _loci_never("Nii")),
    "Niii": _FamilyDef(
        "Niii", ("rho", "sign"), "rho in {0,1}; sign in {+1,-1}", "h19- (rho=0), h26+ (rho=1)",
        _dphi_niii, _check_niii, _loci_niii),
    "Si": _FamilyDef(
        "Si", ("A",), "A with |A| = 1, Im A >= 0, A != -1",
        "g1 (A=1), g2^alpha (alpha = Re A / Im A)",
        _dphi_si, _check_si, _loci_si, _label_si),
    "Sii": _FamilyDef(
        "Sii", ("x",), "x real > 0", "g3",
        _dphi_sii, _check_sii, _loci_sii),
    "Siii1": _FamilyDef(
        "Siii1", ("sign",), "sign in {+1,-1}", "g4",
        _dphi_siii1, _check_sign_only("Siii1"), _loci_siii1),
    "Siii2": _FamilyDef(
        "Siii2", (), "none", "g5",
        _dphi_siii2, _check_none, _loci_siii2),
    "Siii3": _FamilyDef(
        "Siii3", (), "none", "g6",
        _dphi_siii3, _check_none, _loci_never("Siii3")),
    "Siii4": _FamilyDef(
        "Siii4", ("sign",), "sign in {+1,-1}", "g7",
        _dphi_siii4, _check_sign_only("Siii4"), _loci_siii4),
    "Siv1": _FamilyDef(
        "Siv1", (), "none", "g8",
        _dphi_siv1, _check_none, _loci_siv1),
    "Siv2": _FamilyDef(
        "Siv2", ("x",), "x in {0,1}", "g8",
        _dphi_siv2, _check_siv2, _loci_never("Siv2")),
    "Siv3": _FamilyDef(
        "Siv3", ("A",), "A complex with |A| != 1", "g8",
        _dphi_siv3, _check_siv3, _loci_siv3),
    "Sv": _FamilyDef(
        "Sv", (), "none", "g9",
        _dphi_sv, _check_none, _loci_never("Sv")),
    "sl2c": _FamilyDef(
        "sl2c", (), "none", "sl(2,C)",
        _dphi_sl2c, _check_none, None),
}


def family_info(family_id: str) -> _FamilyDef:
    try:
        return _FAMILIES[family_id]
    except KeyError:
        raise FamilyDomainError(family_id, f"unknown family; known: {FAMILY_IDS}") from None


def _validated(f: FamilySpec) -> _FamilyDef:
    """The family of f, after rejecting parameters it does not take and out-of-domain values."""
    fam = family_info(f.id)
    unknown = sorted(set(f.params) - set(fam.params))
    if unknown:
        raise FamilyDomainError(f.id, f"unknown parameter(s) {', '.join(unknown)}; "
                                      f"accepted: {', '.join(fam.params) or 'none'}")
    fam.check(f)
    return fam


def instantiate(f: FamilySpec) -> LieAlgebraCx:
    """Build the complexified structure constants of a catalog family point.

    Rejects unknown and out-of-domain parameters with the violated constraint named.
    """
    fam = _validated(f)
    return LieAlgebraCx.from_dphi(fam.dphi(f))


def special_metric_loci(f: FamilySpec):
    """The special-metric loci for one family point; empty for families not covered."""
    fam = _validated(f)
    if fam.loci is None:
        return []  # no special-metric classification is recorded for this family
    return fam.loci(f)


def algebra_label(f: FamilySpec) -> str:
    fam = family_info(f.id)
    if fam.label is not None:
        return fam.label(f)
    return fam.algebras


def catalog_rows():
    """One row per family: (id, parameter domains, associated Lie algebras)."""
    return [(fam.id, fam.param_doc, fam.algebras) for fam in _FAMILIES.values()]
