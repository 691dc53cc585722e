"""Complexified Lie algebra data and the invariant exterior differential.

Structure constants are stored for the frame (phi_1, phi_2, phi_3,
phi_1b, phi_2b, phi_3b) as c[I][H][K] with [phi_I, phi_H] = c_{IH}^K phi_K.
Invariant k-forms are fully skew rank-k tensors whose entries are the
honest multilinear evaluations on frame vectors; wedges use the
determinant convention, e.g. (a ^ b)(x, y) = a(x) b(y) - a(y) b(x).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import lcm

from .scalars import GaussianRational, gr
from .tensors import (
    DIM,
    INDICES,
    MultiTensor,
    all_indices,
    bar,
    flat_offset,
    numerator_value,
    offset_table,
)

__all__ = [
    "LieAlgebraCx",
    "ValidationCheck",
    "ValidationReport",
    "validate_lie_algebra",
    "exterior_d",
    "d_component",
    "d_is_zero",
]


class LieAlgebraCx:
    """Structure constants of a six-dimensional complexified Lie algebra.

    The bracket rows are cached as sparse lists of numerators over c.den so
    that the differential and the Jacobi check can skip zero terms.
    """

    __slots__ = ("c", "rows")

    def __init__(self, c: MultiTensor):
        if c.rank != 3:
            raise ValueError("structure constants must form a rank-3 tensor")
        self.c = c
        # rows[I][H] = [(K, re, im), ...]: the nonzero c_{IH}^K = (re + im i) / c.den
        self.rows = [[[] for _ in INDICES] for _ in INDICES]
        for n, (i, h, k) in c.nonzero_offsets():
            self.rows[i][h].append((k, c.re[n], c.im[n]))

    @classmethod
    def from_structure_constants(cls, entries: dict) -> "LieAlgebraCx":
        """Build from {(I, H, K): value}; the skew and conjugate entries are filled in."""
        values = [(idx, v) for idx, v in ((idx, gr(raw)) for idx, raw in entries.items()) if v]
        den = lcm(1, *(int(q.denominator) for _, v in values for q in (v.re, v.im)))
        re, im = [0] * DIM ** 3, [0] * DIM ** 3
        for (i, h, k), v in values:
            a, b = (int(q.numerator) * (den // int(q.denominator)) for q in (v.re, v.im))
            for x, y, z, s in ((i, h, k, b), (bar(i), bar(h), bar(k), -b)):
                n, m = flat_offset((x, y, z)), flat_offset((y, x, z))
                re[n], im[n], re[m], im[m] = a, s, -a, -s
        return cls(MultiTensor.from_numerators(3, re, im, den))

    @classmethod
    def from_dphi(cls, dphi: dict) -> "LieAlgebraCx":
        """Build from structure equations d(phi^K) = sum of coefficients on phi^I ^ phi^J.

        ``dphi`` maps an unbarred coframe index K in {0, 1, 2} to
        {(I, J): coefficient} with I < J.  Uses d(alpha)(x, y) = -alpha([x, y]),
        so c_{IJ}^K = -coefficient; barred equations follow by conjugation.
        """
        entries = {}
        for k, terms in dphi.items():
            for (i, j), raw in terms.items():
                if not i < j:
                    raise ValueError(f"coframe wedge indices must be ordered, got {(i, j)}")
                v = gr(raw)
                if not v.is_zero():
                    entries[(i, j, k)] = -v
        return cls.from_structure_constants(entries)

    def __eq__(self, other):
        if not isinstance(other, LieAlgebraCx):
            return NotImplemented
        return self.c == other.c


@dataclass(frozen=True)
class ValidationCheck:
    name: str
    passed: bool
    witness: tuple | None = None
    residue: GaussianRational | None = None


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(ch.passed for ch in self.checks)

    def failures(self):
        return [ch for ch in self.checks if not ch.passed]


# the flat offset of (bar I, bar H, bar K) at the flat offset of (I, H, K)
_CONJUGATE = offset_table(3, lambda *idx: map(bar, idx))


def validate_lie_algebra(alg: LieAlgebraCx) -> ValidationReport:
    """Report skewness, reality, and Jacobi, each with a witness on failure.

    The checks test numerators; a residue value is built only for a witness.
    """
    c = alg.c
    re, im, den = c.re, c.im, c.den
    checks = []

    witness = residue = None
    for n, (i, h, k) in c.nonzero_offsets():
        m = 36 * h + 6 * i + k
        if re[m] != -re[n] or im[m] != -im[n]:
            witness, residue = (i, h, k), numerator_value(re[m] + re[n], im[m] + im[n], den)
            break
    checks.append(ValidationCheck("skew", witness is None, witness, residue))

    witness = residue = None
    for n, (idx, m) in enumerate(zip(all_indices(3), _CONJUGATE)):
        if re[m] != re[n] or im[m] != -im[n]:
            witness, residue = idx, numerator_value(re[m] - re[n], im[m] + im[n], den)
            break
    checks.append(ValidationCheck("reality", witness is None, witness, residue))

    # the Jacobiator of a skew bracket is fully skew, so its first failure is at a
    # strictly increasing triple; without skewness every triple is scanned
    witness = residue = None
    triples = itertools.combinations(INDICES, 3) if checks[0].passed else all_indices(3)
    for i, h, k in triples:
        if witness is not None:
            break
        for b in INDICES:
            xr = xi = 0
            for (x, y, z) in ((i, h, k), (h, k, i), (k, i, h)):
                for a, vr, vi in alg.rows[x][y]:
                    wr, wi = re[36 * a + 6 * z + b], im[36 * a + 6 * z + b]
                    xr += vr * wr - vi * wi
                    xi += vr * wi + vi * wr
            if xr or xi:
                witness, residue = (i, h, k, b), numerator_value(xr, xi, den * den)
                break
    checks.append(ValidationCheck("jacobi", witness is None, witness, residue))

    return ValidationReport(tuple(checks))


def _perm_sign(perm) -> int:
    """Sign of a permutation of range(len(perm)), from its cycle lengths."""
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _d_terms(idx: tuple):
    """The terms (x, y, rest, sign) of d(alpha) at the tuple idx, one per pair of slots
    p < q: x = idx[p], y = idx[q], rest the flat offset of idx without slots p and q, and
    sign = (-1)^(p+q) (formula at exterior_d).

    The one term enumeration of d: d_component reads it for its tuple, and exterior_d and
    d_is_zero read it from the per-rank plan _D_PLANS, built from it at import.
    """
    return tuple((idx[p], idx[q], flat_offset(idx[:p] + idx[p + 1:q] + idx[q + 1:]),
                  -1 if (p + q) % 2 else 1)
                 for p, q in itertools.combinations(range(len(idx)), 2))


def _d_numerators(alpha: MultiTensor, alg: LieAlgebraCx, terms):
    """(re, im) of d(alpha) at a tuple, from its _d_terms, over alpha.den * alg.c.den;
    the one sum behind exterior_d, d_component and d_is_zero."""
    are, aim, stride = alpha.re, alpha.im, DIM ** alpha.rank // DIM  # (a, rest) at a stride + rest
    rows = alg.rows
    xr = xi = 0
    for x, y, rest, s in terms:
        for a, cr, ci in rows[x][y]:
            ar, ai = are[a * stride + rest], aim[a * stride + rest]
            xr += s * (cr * ar - ci * ai)
            xi += s * (cr * ai + ci * ar)
    return xr, xi


def _plan(n: int):
    """One (terms, fills) per sorted n-tuple of distinct frame indices, in combinations
    order: its d terms (_d_terms), and the (flat offset, sign) of each of its permutations,
    where a skew n-form takes the sorted tuple's value times the sign."""
    perms = [(p, _perm_sign(p)) for p in itertools.permutations(range(n))]
    return tuple((_d_terms(idx), tuple((flat_offset([idx[q] for q in p]), sign)
                                       for p, sign in perms))
                 for idx in itertools.combinations(INDICES, n))


# the plans of d(alpha) for alpha of rank 0-3; other ranks build theirs per call
_D_PLANS = {n: _plan(n) for n in range(1, 5)}


def _d_plan(n: int):
    return _D_PLANS[n] if n in _D_PLANS else _plan(n)


def exterior_d(alpha: MultiTensor, alg: LieAlgebraCx) -> MultiTensor:
    """Invariant (Chevalley-Eilenberg) differential of a skew rank-k tensor.

    d(alpha)(x_0, ..., x_k) = sum over i < j of
    (-1)^(i+j) alpha([x_i, x_j], x_0, ..., without x_i, x_j, ..., x_k).
    For 1-forms this is d(alpha)(x, y) = -alpha([x, y]).  The result is skew,
    so only sorted index tuples are evaluated, on numerators; the other entries
    follow by the sign of the permutation.
    """
    n = alpha.rank + 1
    re, im = [0] * DIM ** n, [0] * DIM ** n
    for terms, fills in _d_plan(n):
        xr, xi = _d_numerators(alpha, alg, terms)
        if xr or xi:
            for off, sign in fills:
                re[off], im[off] = sign * xr, sign * xi
    return MultiTensor.from_numerators(n, re, im, alpha.den * alg.c.den).reduced()


def d_component(alpha: MultiTensor, alg: LieAlgebraCx, idx: tuple) -> GaussianRational:
    """Single component of exterior_d(alpha) at the given (rank+1)-tuple."""
    if len(idx) != alpha.rank + 1 or not all(0 <= i < DIM for i in idx):
        raise ValueError(f"expected a {alpha.rank + 1}-tuple of frame indices, got {idx}")
    return numerator_value(*_d_numerators(alpha, alg, _d_terms(tuple(idx))),
                           alpha.den * alg.c.den)


def d_is_zero(alpha: MultiTensor, alg: LieAlgebraCx) -> bool:
    """Whether d(alpha) vanishes; checks only sorted index tuples (enough by skewness)."""
    return not any(any(_d_numerators(alpha, alg, terms))
                   for terms, _ in _d_plan(alpha.rank + 1))
