"""Christoffel symbols, curvature, Ricci traces, and the torsion Bianchi identity.

The two-parameter family of metric connections is

    Gamma^{eps,rho}_{IH}^K = Gamma^{LC}_{IH}^K + eps g^{KL} T_{IHL} + rho g^{KL} C_{IHL},

with the Levi-Civita symbols

    Gamma^{LC}_{IH}^K = 1/2 c_{IH}^K - 1/2 g^{KA} g_{BI} c_{HA}^B - 1/2 g^{KA} g_{BH} c_{IA}^B.

The Hermitian (Gauduchon) connections sit on the line eps + rho = 1/2.
Lowered, the symbols are affine in (eps, rho):

    Gamma^{eps,rho}_{IH,L} = 1/2 lc_{IHL} + eps T_{IHL} + rho C_{IHL},
    lc_{IHL} = c_{IH}^B g_{BL} - c_{HL}^B g_{BI} - c_{IL}^B g_{BH},

and the three tables depend on the point (structure, metric) alone.  A
ConnectionPlane(h, alg) is the point: it builds lc and (T, C) on their first
read, and every route from a point to its connections takes the plane alone.
The scoreboard, the structural sweep and the appendix oracle build one per point
and share it between classify_metric, which reads (T, C), and every connection
they evaluate there; a stack of Levi-Civita connections reads no (T, C), so
builds none.  They evaluate those connections together, in one stacked pass: a
list of specs runs through the kernel stages (_symbols, _operator, and the curvature's reduction
and expansion) as one stack with a leading spec axis.  The point's tables are
read into arrays once, the lowered sums are one integer combination of
(lc, T, C) with one row of scale factors per spec, each over its own lcm
denominator, the raise by g^{-1}, the operator half and the content gcd (taken
per spec) run once for the whole stack, and the symbols reach the operator as
arrays.  Each stage bounds its sums by the largest bound over its specs; every
tier is exact and the gcd is per spec, so the stored
numerators and denominators are those of the specs evaluated one by one.
The pass (_stacked_pass) writes no list: the verdicts, the appendix oracle and the
sweep's checks, its Bianchi defect (_defect_stack) among them, read its arrays.
christoffel, curvature, the defect and the checks are one-spec stacks; christoffel
builds a plane of its own.
The curvature operator R(x, y) = [nabla_x, nabla_y] - nabla_[x,y] has raised
components R(I,H)K^A = Gamma_{HK}^B Gamma_{IB}^A - Gamma_{IK}^B Gamma_{HB}^A
- c_{IH}^B Gamma_{BK}^A.  The stored (4,0)-tensor is the lowered operator
R_{IHKL} = -sum_A R(I,H)K^A g_{AL} = g(R(phi_I, phi_H) phi_L, phi_K), the
component orientation of the golden tables (see docs/conventions.md).  Lowering
acts only on the A slot, and Gamma_{IB}^A g_{AL} = Gamma_{IB,L}, so
R_{IHKL} = -(Gamma_{HK}^B Gamma_{IB,L} - Gamma_{IK}^B Gamma_{HB,L} - c_{IH}^B Gamma_{BK,L})
needs no metric contraction.  The operator is skew in (I, H), so the kernel
(_operator) evaluates its I < H half once, 540 of the 1296 entries, and each
consumer reads that half: the stored tensor negates it, divides out its
content and expands it by one table lookup (_EXPAND), and the Bianchi defect
reads its cyclic rows off the raised operator's half, R(k,i)h = -R(i,k)h.
The flow's exact Ricci traces the symbols directly and builds no operator.
The operator, the defect and the exact Ricci read the symbols and c over one
denominator per spec, as one _over_c call per stack puts them.
The Riemannian Ricci ric_lc keeps the standard orientation, so the Ricci flow
has its usual sign.  All of it, the Ricci traces too, runs on the one
Gaussian-integer kernel of tensors.py, which makes every number-format choice:
this module hands it the arrays MultiTensor stores with the bounds of their sums
and stores its output arrays, so the one-spec path writes no list either.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cached_property
from math import lcm
from operator import floordiv, mul

import numpy as np

from .algebra import _INCREASING, _JACOBI_ROWS, _JACOBI_SLOTS, _SWAP, LieAlgebraCx, _d_tables
from .metric import HermitianData, torsion_forms
from .scalars import GaussianRational, Rat, rat_from_str
from .tensors import (
    DIM,
    INDICES,
    MultiTensor,
    _arrays,
    _cmatmul,
    _maxabs,
    _maxabs_each,
    _partner_hits,
    _real_matmul,
    _reduced_each,
    _scaled_each,
    _stack,
    _tensor,
    _tensors,
    all_indices,
    index_name,
    is_barred,
)

__all__ = [
    "ConnectionSpec",
    "PRESETS",
    "ChristoffelTable",
    "ConnectionPlane",
    "christoffel",
    "CurvatureTensor",
    "curvature",
    "curvature_stack",
    "curvature_of",
    "RicciData",
    "ricci_and_scalar",
    "torsion_and_bianchi_defect",
    "curvature_to_json",
]

_HALF = Rat(1, 2)

PRESETS = {
    "lc": (Rat(0), Rat(0)),
    "chern": (Rat(0), Rat(1, 2)),
    "bismut": (Rat(1, 2), Rat(0)),
    "anti-bismut": (Rat(-1, 2), Rat(0)),
    "first-canonical": (Rat(1, 4), Rat(1, 4)),
    "minimal-gauduchon": (Rat(1, 6), Rat(1, 3)),
}


@dataclass(frozen=True)
class ConnectionSpec:
    """A point (eps, rho) in the plane of metric connections, optionally named."""

    eps: Rat
    rho: Rat
    name: str | None = None

    @classmethod
    def preset(cls, name: str) -> "ConnectionSpec":
        key = name.strip().lower()
        if key == "minimal":
            key = "minimal-gauduchon"
        if key not in PRESETS:
            raise ValueError(f"unknown connection preset {name!r}; known: {sorted(PRESETS)}")
        eps, rho = PRESETS[key]
        return cls(eps, rho, key)

    @classmethod
    def gauduchon(cls, eps) -> "ConnectionSpec":
        """The Hermitian connection with parameter eps on the line eps + rho = 1/2."""
        e = rat_from_str(eps) if isinstance(eps, str) else Rat(eps)
        for key, (pe, pr) in PRESETS.items():
            if pe == e and pr == _HALF - e:
                return cls(pe, pr, key)
        return cls(e, _HALF - e)

    @classmethod
    def parse(cls, text: str) -> "ConnectionSpec":
        """Parse a preset name or an explicit 'eps=a/b,rho=c/d' pair."""
        s = text.strip()
        if "=" not in s:
            return cls.preset(s)
        fields = {}
        for item in s.split(","):
            key, _, val = item.partition("=")
            key = key.strip()
            if key not in ("eps", "rho") or not val:
                raise ValueError(f"bad connection spec {text!r}; expected eps=a/b,rho=c/d")
            if key in fields:
                raise ValueError(f"bad connection spec {text!r}: repeated key {key!r}")
            fields[key] = rat_from_str(val)
        if "eps" not in fields:
            raise ValueError(f"bad connection spec {text!r}: missing eps")
        if "rho" not in fields:
            return cls.gauduchon(fields["eps"])
        return cls(fields["eps"], fields["rho"])

    # the predicates are computed once per spec, into the instance dict (which a
    # frozen dataclass allows); equality and hashing read the fields alone
    @cached_property
    def is_gauduchon(self) -> bool:
        return self.eps + self.rho == _HALF

    @cached_property
    def is_lc(self) -> bool:
        return self.eps == 0 and self.rho == 0

    def __getstate__(self):
        """The fields alone, so a spec pickles the same whether or not a predicate was read."""
        return {"eps": self.eps, "rho": self.rho, "name": self.name}

    def label(self) -> str:
        if self.name:
            return self.name
        return f"eps={self.eps},rho={self.rho}"

    def as_dict(self):
        return {"eps": str(self.eps), "rho": str(self.rho), "name": self.name}


def _lc_sum(c, g):
    """c_{IH}^B g_{BL} - c_{HL}^B g_{BI} - c_{IL}^B g_{BH}: twice Gamma^LC_{IH,L}, over c.den g.den.

    With x_{IHL} = c_{IH}^B g_{BL}, one product, each entry is x_{IHL} - x_{HLI}
    - x_{ILH}: 3 sums of 12 real products.
    """
    (zc, mc), (zg, mg) = _arrays(c), _arrays(g)
    x = _cmatmul(zc.reshape(2, 36, DIM), zg.reshape(2, DIM, DIM),
                 mc.bit_length() + mg.bit_length(), 36).reshape(2, DIM, DIM, DIM)
    return _tensor(3, x - x.transpose(0, 3, 1, 2) - x.transpose(0, 1, 3, 2), c.den * g.den)


def _symbols(tables, rows, g_inv):
    """The lowered and raised symbols of one connection per row of coefficients, as
    two stacks (z, dens): spec s is sum_j rows[s][j] tables[j], with tables lc and
    the forms of (T, C) the stack uses and rows[s] their coefficients (1/2, eps,
    rho), so Gamma^LC + eps T + rho C for lc = _lc_sum(c, g) and any nondegenerate
    invariant (g, g^{-1}).

    The lowered sums are one real kernel product (_real_matmul): a real row of scale
    factors per spec, each spec over the lcm of its nonzero terms' denominators, times
    the tables' numerators (one real product per nonzero term).  The raise is one
    product of the stack with g^{-1} (12 real products per entry).  Each spec is reduced.
    """
    z, _ = _stack(tables)
    ms = _maxabs_each(z)
    dens, scales = [], []
    for row in rows:
        ds = [int(q.denominator) * t.den for q, t in zip(row, tables)]
        den = lcm(*(d for q, d in zip(row, ds) if q))
        dens.append(den)
        # a zero table's factor may lie beyond int64; its term is zero anyway
        scales.append([int(q.numerator) * (den // d) if m else 0 for q, d, m in zip(row, ds, ms)])
    bits = max(abs(f) * m for row in scales for f, m in zip(row, ms)).bit_length()
    terms = max(len(row) - row.count(0) for row in scales)
    low = _real_matmul(scales, z, bits, terms)  # (2, S, 216)
    low, dens = _reduced_each(low, dens)

    zi, mi = _arrays(g_inv)
    gamma = _cmatmul(low.reshape(2, -1, DIM), zi.reshape(2, DIM, DIM),
                     _maxabs(low).bit_length() + mi.bit_length(), 12)
    gamma = _reduced_each(gamma.reshape(low.shape), [d * g_inv.den for d in dens])
    return (low, dens), gamma


# The I < H half of an operator: the 15 pairs (I, H) in combinations order,
# each a block of 36 entries (K, X), 540 in all; _PAIR[I, H] numbers the pair.
_PAIRS = tuple(itertools.combinations(INDICES, 2))
_PAIR = {pair: p for p, pair in enumerate(_PAIRS)}
# the offsets 6 I + H and 6 H + I of the pairs, in pair order
_IH = np.array([6 * i + hh for i, hh in _PAIRS])
_HI = np.array([6 * hh + i for i, hh in _PAIRS])
_IH_HI = np.concatenate((_IH, _HI))

# _EXPAND[6 I + H] is the 36-entry block of [-half] + half + [0] * 36 that holds
# the stored entries -R(I,H)K^L: the negated copy of pair (I, H) for I < H, the
# plain copy of pair (H, I) for I > H (-R(I,H) = R(H,I)), and the zeros for I = H.
_EXPAND = [_PAIR[i, hh] if i < hh else 15 + _PAIR[hh, i] if hh < i else 30
           for i, hh in itertools.product(INDICES, repeat=2)]


def _over_c(gamma, c):
    """(zg, zc, dens, bounds): gamma = (z, dens) and c over dens[s] = lcm(gamma's dens[s],
    c.den) per spec, zc on a spec axis that broadcasts against zg's; bounds[s] is the
    largest |entry| of spec s's two, stored in the dtype that holds a sum of 8 of them
    (the torsion sums 3 entries, the left factor of flow.exact_lc_ricci 8)."""
    (zg, dg), (zc, mc) = gamma, _arrays(c)
    dens, mg = [lcm(d, c.den) for d in dg], _maxabs_each(zg)
    fg, fc = list(map(floordiv, dens, dg)), [den // c.den for den in dens]
    bounds = [max(m * f, mc * k) for m, f, k in zip(mg, fg, fc)]
    bits = max(bounds).bit_length()
    zc = _scaled_each(zc[:, None], fc, [mc] * len(dens), bits, 8)
    return _scaled_each(zg, fg, mg, bits, 8), zc, dens, bounds


def _operator(over, x):
    """R(I,H)K^X = Gamma_{HK}^B X_{IB} - Gamma_{IK}^B X_{HB} - c_{IH}^B X_{BK} for I < H.

    Bilinear in the symbols and a rank-3 table x whose last slot is the output
    slot: over = _over_c(gamma, c) holds the symbols and c over dens[s] per spec,
    and x is a stack (z, dens) with one spec per connection (see tensors.py):
    x = gamma gives the raised operator R(I,H)K^A, and x = the lowered symbols
    Gamma_{IB,L} give sum_A R(I,H)K^A g_{AL}.  The operator is skew in (I, H), so
    only the I < H half is evaluated, once: it returns the stack of the 540
    entries, entry 36 _PAIR[I, H] + 6 K + X, spec s over dens[s] times x's dens[s],
    unreduced.  The first two terms are one product P[I, H, K, X] = Gamma_{HK}^B
    X_{IB} read at (I, H) and at (H, I), the third one product over the 15 pairs'
    rows of c: 3 sums of 12 real products per entry.  All specs share each
    product, on the tier of the largest bound among them.  The curvature expands
    the half to the stored tensor through _EXPAND, and the Bianchi defect reads
    its cyclic rows from it directly.
    """
    (zg, zc, dens, bounds), (zx, dx) = over, x
    bits = max(b.bit_length() + m.bit_length() for b, m in zip(bounds, _maxabs_each(zx)))
    # p[:, s, 6 I + H, 6 K + X]
    p = _cmatmul(zg.reshape(2, -1, 1, 36, DIM), zx.reshape(2, -1, DIM, DIM, DIM),
                 bits, 36).reshape(2, -1, 36, 36)
    p = np.take(p, _IH_HI, axis=2).reshape(2, -1, 2, 540)
    zc = np.take(zc.reshape(2, -1, 36, DIM), _IH, axis=2)
    c_term = _cmatmul(zc, zx.reshape(2, -1, DIM, 36), bits, 36).reshape(2, -1, 540)
    return p[:, :, 0] - p[:, :, 1] - c_term, list(map(mul, dens, dx))


def _stored(half):
    """The numerators of -R(I,H)K^L, 1296 along the last axis, from the 540 of the
    I < H half along the last axis of half, through _EXPAND."""
    lead = half.shape[:-1]
    src = np.concatenate((-half, half, np.zeros_like(half[..., :36])), axis=-1)
    return np.take(src.reshape(*lead, 31, 36), _EXPAND, axis=-2).reshape(*lead, DIM ** 4)


@dataclass(frozen=True)
class ChristoffelTable:
    """Raised symbols Gamma_{IH}^K plus the lowered table Gamma_{IH,L} = Gamma_{IH}^A g_{AL}."""

    spec: ConnectionSpec
    gamma: MultiTensor
    lowered: MultiTensor


@dataclass
class ConnectionPlane:
    """The point (h, alg) with the tables every connection of its plane combines (see
    the module docstring), each built on its first read: lc = _lc_sum(c, g) and forms =
    (T, C) = torsion_forms(h, alg)."""

    h: HermitianData
    alg: LieAlgebraCx

    @cached_property
    def lc(self) -> MultiTensor:
        return _lc_sum(self.alg.c, self.h.g)

    @cached_property
    def forms(self) -> tuple:
        return torsion_forms(self.h, self.alg)


def _plane_symbols(specs, plane: ConnectionPlane):
    """_symbols of specs on plane's tables.  A table no spec of the stack uses is not
    read, so not built: Levi-Civita connections alone build no (T, C)."""
    tables = [plane.lc]
    columns = [[_HALF] * len(specs)]
    eps, rho = [spec.eps for spec in specs], [spec.rho for spec in specs]
    if any(eps) or any(rho):
        for t, q in zip(plane.forms, (eps, rho)):
            if any(q):
                tables.append(t)
                columns.append(q)
    return _symbols(tables, list(zip(*columns)), plane.h.g_inv)


def christoffel(spec: ConnectionSpec, h: HermitianData, alg: LieAlgebraCx) -> ChristoffelTable:
    """The symbols of spec at (h, alg): the one-spec stack of _plane_symbols on the
    point's plane, which builds the tables spec needs (LC needs no (T, C))."""
    low, gamma = _plane_symbols((spec,), ConnectionPlane(h, alg))
    return ChristoffelTable(spec, *_tensors(3, *gamma), *_tensors(3, *low))


@dataclass(frozen=True)
class CurvatureTensor:
    """The full (4,0)-curvature R_{IHKL} of one connection."""

    spec: ConnectionSpec
    tensor: MultiTensor

    def component(self, i, h, k, l) -> GaussianRational:
        return self.tensor[i, h, k, l]


def _stored_each(gamma, c, low):
    """The stack (z, dens) of the (4,0)-curvatures of the symbol stacks (gamma, low),
    z of shape (2, S, 1296), in the pinned component orientation, the lowered operator

    R_{IHKL} = -sum_A R(I,H)K^A g_{AL} = g(R(phi_I, phi_H) phi_L, phi_K),

    read off the lowered symbols.  The I < H half has the whole tensor's content
    (the rest is its negation and zeros), so each spec's half is reduced before
    the one expansion of the stack.
    """
    half, dens = _reduced_each(*_operator(_over_c(gamma, c), low))
    return _stored(half), dens


def curvature(gamma: ChristoffelTable, h: HermitianData, alg: LieAlgebraCx) -> CurvatureTensor:
    """The curvature of one table: the one-spec stack of _stored_each; h is not read."""
    stack = _stored_each(_stack((gamma.gamma,)), alg.c, _stack((gamma.lowered,)))
    return CurvatureTensor(gamma.spec, *_tensors(4, *stack))


def _stacked_pass(specs, plane: ConnectionPlane):
    """The symbol stacks (low, gamma) of specs on plane and their stored curvature
    stack, with no list written."""
    low, gamma = _plane_symbols(specs, plane)
    return low, gamma, _stored_each(gamma, plane.alg.c, low)


def curvature_stack(specs, plane: ConnectionPlane):
    """The stored curvatures of specs on plane as one stack (z, dens), spec s the
    numerators z[:, s] of shape (2, 1296) over dens[s]: the stacked pass, with no
    symbol or curvature list written (symmetry.stack_verdicts and
    goldens.compare_components read it)."""
    return _stacked_pass(specs, plane)[2]


def curvature_of(spec: ConnectionSpec, h: HermitianData, alg: LieAlgebraCx) -> CurvatureTensor:
    return curvature(christoffel(spec, h, alg), h, alg)


@dataclass(frozen=True)
class RicciData:
    """First and second Ricci, the Riemannian Ricci trace, and the scalar curvature.

    ric1 and ric2 are the holomorphic traces of the stored tensor,
    ric1_{IH} = R_{IH k lb} g^{lb k} and ric2_{KL} = R_{i jb K L} g^{jb i},
    with scal the common double trace.  ric_lc is the standard Riemannian
    Ricci tr(x -> R(x, y) z) of the curvature operator, which in the stored
    orientation is ric_lc_{HK} = -g^{AL} R_{AHKL}.
    """

    ric1: MultiTensor
    ric2: MultiTensor
    ric_lc: MultiTensor
    scal: GaussianRational


# the holomorphic traces read g^{lb k} at offset 6 k + lb: g^{-1} transposed, as a
# 36-vector kept only at unbarred k and barred lb; ric_lc reads g^{-1} as stored
_HOL = np.array([k < 3 <= l for k, l in all_indices(2)])


def ricci_and_scalar(curv: CurvatureTensor, h: HermitianData) -> RicciData:
    """The traces of RicciData as kernel products of R's 36 x 36 reshapes with g^{-1}
    read as a 36-vector, over r.den g_inv.den and unreduced; scal sums ric1 once
    more with g^{-1}, over r.den g_inv.den^2."""
    r, g_inv = curv.tensor, h.g_inv
    (zr, mr), (zi, mi) = _arrays(r), _arrays(g_inv)
    # ric_lc sums 2 x 36 real products per entry, ric1 and ric2 2 x 9
    bits, zr = mr.bit_length() + mi.bit_length(), zr.reshape(2, 36, 36)
    hol = zi.reshape(2, DIM, DIM).transpose(0, 2, 1).reshape(2, 36) * _HOL
    ric1 = _cmatmul(zr, hol.reshape(2, 36, 1), bits, 72)  # rows (I, H)
    ric2 = _cmatmul(hol.reshape(2, 1, 36), zr, bits, 72)  # columns (K, L)
    # rows (H, K), columns (A, L)
    zr = zr.reshape(2, DIM, 36, DIM).transpose(0, 2, 1, 3).reshape(2, 36, 36)
    ric_lc = -_cmatmul(zr, zi.reshape(2, 36, 1), bits, 72)
    scal = _cmatmul(hol.reshape(2, 1, 36), ric1, _maxabs(ric1).bit_length() + mi.bit_length(), 18)
    den = r.den * g_inv.den
    return RicciData(_tensor(2, ric1, den), _tensor(2, ric2, den), _tensor(2, ric_lc, den),
                     _tensor(0, scal, den * g_inv.den)[()])


# Gathers over 6-entry rows, per sorted triple (i, hh, k) in combinations order: its
# three rows R(i,hh)k, R(hh,k)i and R(i,k)hh among the 90 of the I < H half, and its
# three cyclic blocks (the even permutations) among the 216 of a rank-4 table,
# 36 x + 6 y + z for (x, y, z) = (i, hh, k), (hh, k, i) and (k, i, hh), which are the
# Jacobi check's row 6 x + y and slot z at the same triple; and per block of the
# defect the row it copies from [sums] + [-sums] + [0] (20 sums, one per triple),
# the fill table of a skew 3-form that exterior_d reads.  The torsion's swap, the
# offset of (H, I, K) at the offset of (I, H, K), is algebra._SWAP.
_HALF_ROWS = np.array([[6 * _PAIR[i, hh] + k, 6 * _PAIR[hh, k] + i, 6 * _PAIR[i, k] + hh]
                       for i, hh, k in itertools.combinations(INDICES, 3)])
_CYCLIC = 6 * _JACOBI_ROWS[_INCREASING] + _JACOBI_SLOTS[_INCREASING]
_FILL = _d_tables(3)[-1]
# the factors of each cyclic block 36 x + 6 y + z: x and 6 y + z, 6 x + y and z
_CX, _CYZ = np.divmod(_CYCLIC, 36)
_CXY, _CZ = np.divmod(_CYCLIC, 6)


def _defect_stack(gamma, c):
    """The torsion T(x,y) = nabla_x y - nabla_y x - [x,y] and the Bianchi defect of each
    spec of a raised-symbol stack gamma, as stacks over den_s and den_s^2 (see _over_c).

    The defect is (cyclic sum of R(x,y)z) - (d^nabla T)(x,y,z), a vector-valued
    3-tensor that must vanish identically for every metric connection.  Its
    curvature side is the raised form of the stored curvature's operator, so it is the
    structural oracle for the whole Christoffel/curvature pipeline.  Both sides
    are fully skew in (x, y, z), so sorted triples are evaluated, each from three
    rows of the kernel's I < H half (60 rows in all, no rank-4 operator), and
    copied to the dense 1296-entry defect with their permutation signs by _FILL.  The
    d^nabla T terms nabla_x (T(y,z)) - T([x,y], z) are two products over the 60
    cyclic blocks the sums read.  All specs share each product, on the dtype of
    the largest bound among them.
    """
    # per entry: 3 half rows of 36 products below 2^(2b), and 3 x 24 products with
    # one factor T, |T| < 3 2^b, each counted as 3 products below 2^(2b)
    over = zg, zc, dens, bounds = _over_c(gamma, c)
    bits, terms = 2 * max(bounds).bit_length(), 3 * 36 + 3 * 3 * 24
    half, dens2 = _operator(over, (zg, dens))  # spec s over dens[s]^2
    half = np.take(half.reshape(2, -1, 90, DIM), _HALF_ROWS, axis=2)
    # T_{IH}^K = Gamma_{IH}^K - Gamma_{HI}^K - c_{IH}^K
    zt = zg - np.take(zg, _SWAP, axis=2) - zc
    # nabla_x (T(y,z))^a = T_{yz}^m Gamma_{xm}^a and T([x,y], z)^a = c_{xy}^m T_{mz}^a,
    # a row times a 6 x 6 matrix per cyclic block (x, y, z), gathered before the product
    zg3, zt3 = zg.reshape(2, -1, DIM, DIM, DIM), zt.reshape(2, -1, DIM, DIM, DIM)
    nabla_t = _cmatmul(np.take(zt.reshape(2, -1, 36, 1, DIM), _CYZ, axis=2),
                       np.take(zg3, _CX, axis=2), bits, terms)
    t_bracket = _cmatmul(np.take(zc.reshape(2, -1, 36, 1, DIM), _CXY, axis=2),
                         np.take(zt3.transpose(0, 1, 3, 2, 4), _CZ, axis=2), bits, terms)
    d_t = (nabla_t - t_bracket)[..., 0, :]
    # R(i,hh)k + R(hh,k)i + R(k,i)hh - d^nabla T, the curvature read off the I < H half
    # as R(k,i)hh = -R(i,k)hh; summed from d_t on, whose dtype holds the 324-term bound,
    # since three rows of an int64 half (36 terms) may have no int64 sum
    sums = -d_t.sum(axis=3) + half[:, :, :, 0] + half[:, :, :, 1] - half[:, :, :, 2]
    rows = np.concatenate((sums, -sums, np.zeros_like(sums[:, :, :1])), axis=2)
    defect = np.take(rows, _FILL, axis=2).reshape(2, -1, DIM ** 4)
    return (zt, dens), (defect, dens2)


def torsion_and_bianchi_defect(spec: ConnectionSpec, h: HermitianData, alg: LieAlgebraCx):
    """The torsion and the Bianchi defect of spec: the one-spec stack of _defect_stack on
    christoffel's symbols, built on a plane of their own."""
    table = christoffel(spec, h, alg)
    torsion, defect = _defect_stack(_stack((table.gamma,)), alg.c)
    return _tensors(3, *torsion)[0], _tensors(4, *defect)[0]


# -- structural invariants ---------------------------------------------------
#
# Each check is a mask over a stack array z (2, S, n): a nonzero entry is hit where
# a partner, read at an import-time index array, is not the entry's (re, im) times
# a pair of signs.  Only integers are compared: exact on int64 and object alike.

# the curvature checks in hit order; row j: the offset of each tuple (I, H, K, L) read as
# (H, I, K, L), (I, H, L, K), (bar I, ..., bar L) or (K, L, I, H), which holds -R, -R, conj R, R
_KINDS = ("skew12", "skew34", "reality", "symm")
_IDX4 = np.array(all_indices(4))
_CURVATURE_PARTNERS = np.array([_IDX4[:, [1, 0, 2, 3]], _IDX4[:, [0, 1, 3, 2]], (_IDX4 + 3) % DIM,
                                _IDX4[:, [2, 3, 0, 1]]]) @ DIM ** np.arange(3, -1, -1)
_CURVATURE_SIGNS = np.array([[-1, -1, 1, 1], [-1, -1, -1, 1]])
# nabla g: Gamma_{IH,L} = -Gamma_{IL,H}; nabla J: Gamma_{IH}^K = 0 for H, K of mixed type
_IDX3 = np.array(all_indices(3))
_NABLA_G_PARTNERS = np.array([_IDX3[:, [0, 2, 1]]]) @ DIM ** np.arange(2, -1, -1)
_MIXED = np.array([is_barred(hh) != is_barred(k) for _, hh, k in all_indices(3)])


def _curvature_hits(z, symm):
    """The mask (S, 4 1296) of a stored curvature stack array z: position 4 n + j is
    hit when entry n fails _KINDS[j], (Symm) tested only where symm[s] is true."""
    hits = _partner_hits(z, _CURVATURE_PARTNERS, _CURVATURE_SIGNS)
    hits[:, :, 3] &= np.array(symm, bool)[:, None]
    return hits.reshape(len(symm), -1)


def _nabla_g_hits(low):
    return _partner_hits(low, _NABLA_G_PARTNERS, _CURVATURE_SIGNS[:, :1])[:, :, 0]


def _nabla_j_hits(gamma):
    """The mask (S, 216) of a raised-symbol stack array: the nonzero entries of mixed type."""
    return (gamma != 0).any(0) & _MIXED


def curvature_symmetry_failures(curv: CurvatureTensor, check_symm: bool = False):
    """Violations of skewness in (I,H) and (K,L), reality, and optionally (Symm), as
    (kind, index tuple) by offset, then kind: the one-spec stack of _curvature_hits."""
    hits = _curvature_hits(_stack((curv.tensor,))[0], [check_symm])
    return [(_KINDS[m % 4], all_indices(4)[m // 4]) for m in np.flatnonzero(hits).tolist()]


def nabla_g_failures(table: ChristoffelTable):
    """Metric compatibility: the lowered symbols must be skew in the last two slots."""
    hits = _nabla_g_hits(_stack((table.lowered,))[0])
    return [all_indices(3)[n] for n in np.flatnonzero(hits)]


def nabla_j_failures(table: ChristoffelTable):
    """Type preservation: Gamma_{IH}^K with mixed types in (H, K) must vanish."""
    hits = _nabla_j_hits(_stack((table.gamma,))[0])
    return [all_indices(3)[n] for n in np.flatnonzero(hits)]


# -- JSON wire format --------------------------------------------------------

def curvature_to_json(curv: CurvatureTensor) -> str:
    components = [
        {"i": index_name(i), "h": index_name(hh), "k": index_name(k),
         "l": index_name(l), "value": str(v)}
        for (i, hh, k, l), v in curv.tensor.nonzero()
    ]
    doc = {"spec": curv.spec.as_dict(), "components": components}
    return json.dumps(doc, separators=(",", ":"))
