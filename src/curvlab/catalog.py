"""The catalog of invariant complex structures on six-dimensional Lie algebras.

Families (Np), (Ni), (Nii), (Niii) live on nilpotent algebras; (Si) through
(Sv) on solvable non-nilpotent algebras with holomorphically-trivial
canonical bundle; sl2c is the complex special linear algebra.  Each family
carries its parameter domain, the structure equations for d(phi^k), the
underlying real Lie algebra labels (metadata only), and the known loci of
special metrics (Kahler / balanced / pluriclosed).  A domain is declared
data, not code: the finite choices of a parameter (which the scoreboard also
draws from) and the other rules, each with the text a violation reports.
Every locus is a linear subspace of the nine real metric coordinates, recorded
as homogeneous linear equations whose coefficients may depend on the structure
parameters; the zero test runs on the metric parameters cleared to integers.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

from .algebra import LieAlgebraCx
from .metric import MetricParams, _cleared
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
    """A special-metric locus of one family point: homogeneous linear equations.

    Each equation is a tuple of nine rational coefficients on the cleared metric
    coordinates (r2, s2, t2, Re u, Im u, Re v, Im v, Re z, Im z); the empty
    system is every metric.  ``iff`` records whether the locus characterizes the
    metric class exactly (both directions testable) or is only a sufficient
    normal form.
    """

    family: str
    kind: str  # kahler | balanced | pluriclosed
    description: str
    equations: tuple
    iff: bool = True

    def contains(self, m: MetricParams) -> bool:
        """Whether m solves every equation; a zero test on m's parameters cleared to integers."""
        c = _cleared(m)[1]
        return all(sum(a * x for a, x in zip(row, c)) == 0 for row in self.equations)


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


# -- parameter domains ---------------------------------------------------------
# Declared in _FAMILIES (choices, constraints); each text is what a violation
# reports, and the scoreboard draws the choices in their declared order.

_RHO = ("rho", (0, 1), "rho in {0, 1}")
_SIGN = ("sign", (1, -1), "sign in {+1, -1}")


def _real_nonneg(v: GaussianRational) -> bool:
    return v.im == 0 and v.re >= 0


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


# -- special-metric loci ------------------------------------------------------
# A locus is a system of homogeneous linear equations over Q in the cleared
# metric coordinates (r2, s2, t2, Re u, Im u, Re v, Im v, Re z, Im z), the order
# of metric._cleared; each equation is its tuple of nine coefficients.  "Any
# metric" is the empty system and "none" is r2 = 0, which no positive metric
# satisfies.  An entry is (description, equations) or (description, equations,
# iff) for each of kahler, balanced and pluriclosed, in that order; a family
# whose loci depend on its structure parameters maps them to the entries.

_E = [tuple(int(j == k) for j in range(9)) for k in range(9)]
_U, _V, _Z = tuple(_E[3:5]), tuple(_E[5:7]), tuple(_E[7:9])
_ANY = ("any metric", ())
_NONE = ("none", (_E[0],))
_NEVER = (_NONE, _NONE, _NONE)
_VZ = ("v = z = 0", _V + _Z)


def _ni_entries(p):
    rho, lam, d = p.param("rho"), p.param("lambda").re, p.param("D")
    # s2 + D r2 = i conj(u) lambda, by real and imaginary parts
    balanced = _V + _Z + ((d.re, 1, 0, 0, -lam, 0, 0, 0, 0), (d.im, 0, 0, -lam, 0, 0, 0, 0, 0))
    pluriclosed = (rho + lam * lam - (d + d.conjugate())).is_zero()
    return (_NONE, ("v = z = 0 and s2 + D r2 = i conj(u) lambda", balanced),
            ("any metric iff rho + lambda^2 - 2 Re D = 0", () if pluriclosed else _NONE[1]))


_LOCI = {
    "Np": lambda p: (_ANY,) * 3 if p.param("rho").is_zero() else (_NONE, _ANY, _NONE),
    "Ni": _ni_entries,
    "Nii": _NEVER,
    # the normal form of the balanced class (v is free); the exact pointwise variety
    # is larger (e.g. purely imaginary u with v = 0), so it is sufficient-only
    "Niii": lambda p: (_NONE, ("rho = 0 and u = z = 0 (normal form)",
                               _U + _Z if p.param("rho").is_zero() else _NONE[1], False), _NONE),
    "Si": lambda p: ((("u = v = z = 0", _U + _V + _Z), _VZ, ("u = 0", _U)) if p.param("A") == I
                     else (_NONE, _VZ, _NONE)),
    "Sii": (_NONE, ("u = z = 0", _U + _Z), _NONE),
    "Siii1": (_NONE, _NONE, ("u = 0", _U)),
    "Siii2": (_NONE, ("v = z = 0 and u real", _V + _Z + (_E[4],)), _NONE),
    "Siii3": _NEVER,
    "Siii4": (_NONE, ("v = z = 0 and r2 = s2", _V + _Z + ((1, -1, 0, 0, 0, 0, 0, 0, 0),)), _NONE),
    "Siv1": (_NONE, _ANY, _NONE),
    "Siv2": _NEVER,
    "Siv3": (_NONE, _VZ, _NONE),
    "Sv": _NEVER,
}


@dataclass(frozen=True)
class _FamilyDef:
    id: str
    params: tuple  # the names of the structure parameters the family takes
    param_doc: str
    algebras: str
    dphi: Callable
    choices: tuple = ()  # (name, values, text) per finite-choice parameter, in draw order
    constraints: tuple = ()  # (text, test) per other rule; test reads {name: value}
    label: Callable | None = None


_FAMILIES = {
    "Np": _FamilyDef(
        "Np", ("rho",), "rho in {0,1}", "h1 (rho=0), h5 (rho=1)",
        _dphi_np, choices=(_RHO,), label=_label_np),
    "Ni": _FamilyDef(
        "Ni", ("rho", "lambda", "D"), "rho in {0,1}; lambda real >= 0; D complex, Im D >= 0",
        "h2, h3, h4, h5, h6, h8",
        _dphi_ni, choices=(_RHO,),
        constraints=(("lambda real with lambda >= 0", lambda v: _real_nonneg(v["lambda"])),
                     ("Im D >= 0", lambda v: v["D"].im >= 0)),
        label=_label_ni),
    "Nii": _FamilyDef(
        "Nii", ("rho", "B", "c"), "rho in {0,1}; B complex; c real >= 0; (rho,B,c) != (0,0,0)",
        "h7, h9..h16",
        _dphi_nii, choices=(_RHO,),
        constraints=(("c real with c >= 0", lambda v: _real_nonneg(v["c"])),
                     ("(rho, B, c) != (0, 0, 0)",
                      lambda v: any(v[k] for k in ("rho", "B", "c"))))),
    "Niii": _FamilyDef(
        "Niii", ("rho", "sign"), "rho in {0,1}; sign in {+1,-1}", "h19- (rho=0), h26+ (rho=1)",
        _dphi_niii, choices=(_RHO, _SIGN)),
    "Si": _FamilyDef(
        "Si", ("A",), "A with |A| = 1, Im A >= 0, A != -1",
        "g1 (A=1), g2^alpha (alpha = Re A / Im A)",
        _dphi_si,
        constraints=(("|A| = 1 (A = cos(theta) + i sin(theta))", lambda v: v["A"].abs2() == 1),
                     ("Im A >= 0 (theta in [0, pi))", lambda v: v["A"].im >= 0),
                     ("A != -1 (theta in [0, pi))", lambda v: v["A"] != -1)),
        label=_label_si),
    "Sii": _FamilyDef(
        "Sii", ("x",), "x real > 0", "g3",
        _dphi_sii,
        constraints=(("x real with x > 0", lambda v: v["x"].im == 0 and v["x"].re > 0),)),
    "Siii1": _FamilyDef(
        "Siii1", ("sign",), "sign in {+1,-1}", "g4",
        _dphi_siii1, choices=(_SIGN,)),
    "Siii2": _FamilyDef(
        "Siii2", (), "none", "g5",
        _dphi_siii2),
    "Siii3": _FamilyDef(
        "Siii3", (), "none", "g6",
        _dphi_siii3),
    "Siii4": _FamilyDef(
        "Siii4", ("sign",), "sign in {+1,-1}", "g7",
        _dphi_siii4, choices=(_SIGN,)),
    "Siv1": _FamilyDef(
        "Siv1", (), "none", "g8",
        _dphi_siv1),
    "Siv2": _FamilyDef(
        "Siv2", ("x",), "x in {0,1}", "g8",
        _dphi_siv2, choices=(("x", (0, 1), "x in {0, 1}"),)),
    "Siv3": _FamilyDef(
        "Siv3", ("A",), "A complex with |A| != 1", "g8",
        _dphi_siv3, constraints=(("|A| != 1", lambda v: v["A"].abs2() != 1),)),
    "Sv": _FamilyDef(
        "Sv", (), "none", "g9",
        _dphi_sv),
    "sl2c": _FamilyDef(
        "sl2c", (), "none", "sl(2,C)",
        _dphi_sl2c),
}

FAMILY_IDS = tuple(_FAMILIES)


def family_info(family_id: str) -> _FamilyDef:
    try:
        return _FAMILIES[family_id]
    except KeyError:
        raise FamilyDomainError(family_id, f"unknown family; known: {FAMILY_IDS}") from None


def _validated(f: FamilySpec) -> _FamilyDef:
    """The family of f, after rejecting unknown, missing and out-of-domain parameters.

    Every declared parameter must be present (checked in declared order); then the
    choices and then the constraints are tested, and the first violation is raised.
    """
    fam = family_info(f.id)
    unknown = sorted(set(f.params) - set(fam.params))
    if unknown:
        raise FamilyDomainError(f.id, f"unknown parameter(s) {', '.join(unknown)}; "
                                      f"accepted: {', '.join(fam.params) or 'none'}")
    values = {name: f.param(name) for name in fam.params}
    for name, choices, text in fam.choices:
        if not any(values[name] == c for c in choices):
            raise FamilyDomainError(f.id, text)
    for text, test in fam.constraints:
        if not test(values):
            raise FamilyDomainError(f.id, text)
    return fam


def instantiate(f: FamilySpec) -> LieAlgebraCx:
    """Build the complexified structure constants of a catalog family point.

    Rejects unknown and out-of-domain parameters with the violated constraint named.
    Equal points share one algebra: the last _MEMO_SIZE built are kept, keyed on the
    family id and the parameters as given (so "1/2" and gr("1/2") are two keys for
    one algebra), and a rejected point is checked again on every call.  The algebra
    is immutable, and its c is never written: a caller copies it first.
    """
    return _instantiate(f.id, tuple(sorted(f.params.items())))


# the bound keeps a long run of random draws (golden queries: about 1500 distinct Ni
# points) from holding every algebra it built
_MEMO_SIZE = 256


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _instantiate(family_id, params):
    f = FamilySpec(family_id, dict(params))
    return LieAlgebraCx.from_dphi(_validated(f).dphi(f))


def special_metric_loci(f: FamilySpec):
    """The special-metric loci for one family point; empty for families not covered."""
    _validated(f)
    entries = _LOCI.get(f.id, ())  # none recorded for sl2c
    if callable(entries):
        entries = entries(f)
    return [MetricLocus(f.id, kind, *entry)
            for kind, entry in zip(("kahler", "balanced", "pluriclosed"), entries)]


def algebra_label(f: FamilySpec) -> str:
    fam = family_info(f.id)
    if fam.label is not None:
        return fam.label(f)
    return fam.algebras


def catalog_rows():
    """One row per family: (id, parameter domains, associated Lie algebras)."""
    return [(fam.id, fam.param_doc, fam.algebras) for fam in _FAMILIES.values()]
