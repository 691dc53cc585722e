"""Complexified Lie algebra data and the invariant exterior differential.

Structure constants are stored for the frame (phi_1, phi_2, phi_3,
phi_1b, phi_2b, phi_3b) as c[I][H][K] with [phi_I, phi_H] = c_{IH}^K phi_K.
Invariant k-forms are fully skew rank-k tensors whose entries are the
honest multilinear evaluations on frame vectors; wedges use the
determinant convention, e.g. (a ^ b)(x, y) = a(x) b(y) - a(y) b(x).
The differential and the skew, reality and Jacobi checks run on the exact
kernel of curvlab.tensors: integer products and index gathers at offset
tables, on the numerator arrays of c and of the form.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import lcm

import numpy as np

from .scalars import GaussianRational, gr
from .tensors import (
    DIM,
    INDICES,
    MultiTensor,
    _arrays,
    _cmatmul,
    _partner_hits,
    _reduced_each,
    _tensor,
    all_indices,
    bar,
    flat_offset,
    numerator_value,
)

__all__ = [
    "LieAlgebraCx",
    "ValidationCheck",
    "ValidationReport",
    "validate_lie_algebra",
    "exterior_d",
    "d_is_zero",
]


class LieAlgebraCx:
    """Structure constants of a six-dimensional complexified Lie algebra: the rank-3
    tensor c, whose numerator array the differential and the checks read.

    Immutable: c is set once, by __init__.  catalog.instantiate hands one algebra to
    every caller of an equal family point, so a caller that writes entries of c
    writes them on a copy (c.copy(), then __setitem__).
    """

    __slots__ = ("c",)

    def __init__(self, c: MultiTensor):
        if c.rank != 3:
            raise ValueError("structure constants must form a rank-3 tensor")
        object.__setattr__(self, "c", c)

    def __setattr__(self, name, value):
        raise AttributeError("LieAlgebraCx is immutable")

    def __delattr__(self, name):
        raise AttributeError("LieAlgebraCx is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through __init__; the default slot restore would setattr
        return LieAlgebraCx, (self.c,)

    @classmethod
    def from_structure_constants(cls, entries: dict, sign: int = 1) -> "LieAlgebraCx":
        """Build from {(I, H, K): value}, each value times sign (+1 or -1); the skew and
        conjugate entries are filled in, a later entry overwriting an earlier one's.

        The signs and the conjugation act on the integer numerators of each value,
        put over the lcm of the denominators of the values that are stored.
        """
        stored = {}  # per flat offset: (value, sign of its real part, sign of its imaginary part)
        for (i, h, k), raw in entries.items():
            v = gr(raw)
            if v:
                for x, y, z, t in ((i, h, k, sign), (bar(i), bar(h), bar(k), -sign)):
                    stored[36 * x + DIM * y + z] = v, sign, t
                    stored[36 * y + DIM * x + z] = v, -sign, -t
        den = lcm(1, *{int(q.denominator) for v, _, _ in stored.values() for q in (v.re, v.im)})
        re, im = [0] * DIM ** 3, [0] * DIM ** 3
        for n, (v, s, t) in stored.items():
            re[n] = s * int(v.re.numerator) * (den // int(v.re.denominator))
            im[n] = t * int(v.im.numerator) * (den // int(v.im.denominator))
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
                    entries[(i, j, k)] = v
        return cls.from_structure_constants(entries, -1)

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


# per flat offset of c_{IH}^K: the offsets of c_{HI}^K, which a skew c holds as
# -c_{IH}^K, and of c_{bar I bar H}^{bar K}, which a real c holds as its conjugate;
# per (x, y, z) of the triples (I, H, K), (H, K, I) and (K, I, H), the row 6 x + y of
# c (36 x 6) and the slot z of the Jacobiator's terms c_{xy}^a c_{az}^b; and the
# strictly increasing triples
_I, _H, _K = np.indices((DIM,) * 3).reshape(3, -1)
_SWAP = 36 * _H + DIM * _I + _K
_CONJUGATE = 36 * ((_I + 3) % DIM) + DIM * ((_H + 3) % DIM) + (_K + 3) % DIM
_JACOBI_ROWS = np.stack((DIM * _I + _H, DIM * _H + _K, DIM * _K + _I), 1)
_JACOBI_SLOTS = np.stack((_K, _I, _H), 1)
_INCREASING = np.flatnonzero((_I < _H) & (_H < _K))


def _check(name, hit, witness, residue, den):
    """A failed ValidationCheck at witness, with the residue numerators over den, when
    hit, else a passed one."""
    if not hit:
        return ValidationCheck(name, True)
    return ValidationCheck(name, False, witness, numerator_value(*residue, den))


def validate_lie_algebra(alg: LieAlgebraCx) -> ValidationReport:
    """Report skewness, reality, and Jacobi, each with a witness on failure.

    Each check is a mask over the numerator array of c; a residue value is built
    only for a witness.  The skew witness is the first nonzero entry whose swap
    partner is not its negation, the reality witness the first entry, zero or
    not, whose conjugate partner is not its conjugate.
    """
    c = alg.c
    z, m = _arrays(c)
    checks = []
    for name, partners, (s, t), zeros in (("skew", _SWAP, (-1, -1), False),
                                          ("reality", _CONJUGATE, (1, -1), True)):
        hits = _partner_hits(z[:, None], partners[None], np.array([[s], [t]]), zeros).ravel()
        n = int(hits.argmax())
        (pa, pb), (a, b) = z[:, partners[n]].tolist(), z[:, n].tolist()
        checks.append(_check(name, hits[n], all_indices(3)[n], (pa - s * a, pb - t * b), c.den))

    # the Jacobiator of a skew bracket is fully skew, so its first failure is at a
    # strictly increasing triple; without skewness every triple is scanned.  Per
    # triple, its three rows c_{xy}^a times the 18 x 6 matrix of its c_{az}^b.
    triples = _INCREASING if checks[0].passed else np.arange(DIM ** 3)
    rows = np.take(z.reshape(2, 36, DIM), _JACOBI_ROWS[triples], axis=1)
    cols = np.take(z.reshape(2, DIM, DIM, DIM).swapaxes(1, 2), _JACOBI_SLOTS[triples], axis=1)
    jac = _cmatmul(rows.reshape(2, -1, 1, 3 * DIM), cols.reshape(2, -1, 3 * DIM, DIM),
                   2 * m.bit_length(), 36)
    jac = jac.reshape(2, -1)
    n = int(jac.any(0).argmax())
    witness = all_indices(4)[DIM * triples[n // DIM] + n % DIM]
    checks.append(_check("jacobi", jac[:, n].any(), witness, jac[:, n].tolist(), c.den ** 2))
    return ValidationReport(tuple(checks))


@functools.cache
def _d_tables(n: int):
    """(tuples, rows, rest, signs, fill), the tables of d on (n-1)-forms, built on the
    first call per n.

    tuples are the increasing n-tuples of frame indices in combinations order.  Per
    tuple t and pair of slots p < q (the j-th in combinations order), rows[t, j] =
    6 t_p + t_q and rest[t, j] is the offset of t without slots p, q; signs[j] =
    (-1)^(p+q).  A skew n-form reads its entry at offset k from [sums, -sums, 0] at
    fill[k]: its sorted tuple's sum, times the sign of the sorting, or 0.
    """
    tuples = tuple(itertools.combinations(INDICES, n))
    pairs = tuple(itertools.combinations(range(n), 2))
    shape = (len(tuples), len(pairs))
    rows = np.array([[DIM * t[p] + t[q] for p, q in pairs] for t in tuples], np.intp)
    rest = np.array([[flat_offset(t[:p] + t[p + 1:q] + t[q + 1:]) for p, q in pairs]
                     for t in tuples], np.intp)
    at, fill = {t: k for k, t in enumerate(tuples)}, []
    for idx in all_indices(n):
        odd = sum(a > b for a, b in itertools.combinations(idx, 2)) % 2
        fill.append(at[tuple(sorted(idx))] + odd * len(tuples) if len(set(idx)) == n
                    else 2 * len(tuples))
    signs, fill = np.array([(-1) ** (p + q) for p, q in pairs], np.int64), np.array(fill, np.intp)
    tables = rows.reshape(shape), rest.reshape(shape), signs, fill
    for a in tables:  # every caller shares the cached arrays
        a.setflags(write=False)
    return (tuples, *tables)


def _d_sums(alpha: MultiTensor, c: MultiTensor):
    """(z, den): the numerators z (2, T) of d(alpha) at the T tuples of
    _d_tables(alpha.rank + 1), over den = alpha.den c.den and unreduced.

    By the formula at exterior_d, d(alpha) at a tuple is the sum over its pairs
    p < q of the signed row c_{x_p x_q}^a times the column alpha_{a, rest}: two
    gathers and one kernel product per tuple, 12 real products per pair.
    """
    tuples, rows, rest, signs, _ = _d_tables(alpha.rank + 1)
    if not alpha.rank:  # a constant has d = 0
        return np.zeros((2, len(tuples)), np.int64), alpha.den * c.den
    (za, ma), (zc, mc) = _arrays(alpha), _arrays(c)
    zc = np.take(zc.reshape(2, 36, DIM), rows, axis=1)
    za = np.take(za.reshape(2, DIM, -1).transpose(0, 2, 1), rest, axis=1)
    shape = (2, len(tuples), 1, DIM * len(signs))  # per tuple: a row by a column
    out = _cmatmul((zc * signs[:, None]).reshape(shape), za.reshape(shape).swapaxes(2, 3),
                   ma.bit_length() + mc.bit_length(), 12 * len(signs))
    return out.reshape(2, -1), alpha.den * c.den


def exterior_d(alpha: MultiTensor, alg: LieAlgebraCx) -> MultiTensor:
    """Invariant (Chevalley-Eilenberg) differential of a skew rank-k tensor.

    d(alpha)(x_0, ..., x_k) = sum over i < j of
    (-1)^(i+j) alpha([x_i, x_j], x_0, ..., without x_i, x_j, ..., x_k).
    For 1-forms this is d(alpha)(x, y) = -alpha([x, y]).  The result is skew, so
    only increasing index tuples are evaluated (_d_sums); every entry is then read
    from [sums, -sums, 0] at the fill table, so the output is skew for any input.
    """
    n = alpha.rank + 1
    z, den = _d_sums(alpha, alg.c)
    z, (den,) = _reduced_each(z[:, None], [den])
    rows = np.concatenate((z[:, 0], -z[:, 0], np.zeros((2, 1), z.dtype)), axis=1)
    return _tensor(n, np.take(rows, _d_tables(n)[-1], axis=1), den)


def d_is_zero(alpha: MultiTensor, alg: LieAlgebraCx) -> bool:
    """Whether d(alpha) vanishes: a zero test of its sums at the increasing tuples
    (enough by skewness)."""
    return not _d_sums(alpha, alg.c)[0].any()
