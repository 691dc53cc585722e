"""Curvature symmetry verdicts: the Kahler-like conditions, flatness, and the Gray test.

A metric connection is Kahler-like when its curvature satisfies both

  - the type condition: R_{ij..} = R_{..kl} = 0 whenever the first or the
    last index pair is of pure type, and
  - the first-Bianchi condition expressed through the tensor
    B_{i jb k lb} = R_{i jb k lb} - R_{k jb i lb} = 0.

Both checks enumerate components exhaustively; they are the statements
under test, not bookkeeping shortcuts.  Each verdict is a numpy mask over a
stack of stored curvatures, the kernel's (2, S, 1296) numerator array of S
connections with one denominator each (connection.curvature_stack), read at
index arrays built at import from the tables below: a type or Gray entry is
hit when its numerators are not both zero, and a B entry when the numerators
at its two offsets differ, so every test is a comparison of integers and is
exact on int64 and on object arrays alike.  Counts are mask sums, and the
witnesses are the lexicographically first hits; a GaussianRational value is
built, from Python ints, only for a witness.  stack_verdicts gives every
verdict of a stack at once (the scoreboard's path); kahler_like_check,
flatness_check and gray_check_lc are the one-spec stacks of one stored
CurvatureTensor, read off its stored numerator array as stack_verdicts reads a
stack, with no list built.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .connection import CurvatureTensor
from .scalars import GaussianRational
from .tensors import (
    BARRED,
    INDICES,
    UNBARRED,
    _first_hits,
    _stack,
    all_indices,
    index_name,
    numerator_value,
)

__all__ = [
    "BTensor",
    "KahlerLikeReport",
    "kahler_like_check",
    "FlatnessResult",
    "flatness_check",
    "gray_check_lc",
    "stack_verdicts",
    "report_to_json",
]

DEFAULT_WITNESS_CAP = 8


class BTensor:
    """B_{i jb k lb} over unbarred (i, j, k, l); skew under i <-> k by construction.

    The entries are numerator differences re[p] - re[q], im[p] - im[q] of the
    curvature at the offsets p of R_{i jb k lb} and q of R_{k jb i lb}, over
    the curvature's denominator; entry m is (i, j, k, l) read in base 3.
    """

    __slots__ = ("re", "im", "den")

    def __init__(self, curv: CurvatureTensor):
        r = curv.tensor
        self.re = [r.re[p] - r.re[q] for p, q in _B_OFFSETS]
        self.im = [r.im[p] - r.im[q] for p, q in _B_OFFSETS]
        self.den = r.den

    def component(self, i: int, j: int, k: int, l: int) -> GaussianRational:
        """Entry at zero-based unbarred indices (i, j, k, l)."""
        m = ((i * 3 + j) * 3 + k) * 3 + l
        return numerator_value(self.re[m], self.im[m], self.den)


_B_INDICES = tuple(itertools.product(UNBARRED, repeat=4))
# the curvature offsets of R_{i jb k lb} and R_{k jb i lb} (jb = j + 3, lb = l + 3)
_B_OFFSETS = tuple((216 * i + 36 * j + 6 * k + l + 111, 216 * k + 36 * j + 6 * i + l + 111)
                   for i, j, k, l in _B_INDICES)
# the type condition's offsets: first or last index pair of pure (unbarred) type
_TYPE_CONDITION = tuple((n, idx) for n, idx in enumerate(all_indices(4))
                        if (idx[0] < 3 and idx[1] < 3) or (idx[2] < 3 and idx[3] < 3))
# the Gray condition's offsets of R(X, Y, Zb, Wb) and R(X, Y, Z, Wb)
_GRAY_OFFSETS = tuple(216 * i + 36 * j + 6 * k + l for i in UNBARRED for j in UNBARRED
                      for k in INDICES for l in BARRED)

# The Kahler-like verdict reads one gather of 648 offsets: the type condition's 567,
# then the 81 offsets p of R_{i jb k lb} in _B_INDICES order.  The offsets q of
# R_{k jb i lb} are the same 81 with i and k swapped, so B reads them within the
# gather, at the positions _B_SWAP.  Position m of a block names its witness by
# _TYPE_WITNESS[m] or _B_WITNESS[m].
_NT = len(_TYPE_CONDITION)
_KL_AT = [n for n, _ in _TYPE_CONDITION] + [p for p, _ in _B_OFFSETS]
_B_SWAP = np.array([27 * k + 9 * j + 3 * i + l for i, j, k, l in _B_INDICES])
_TYPE_WITNESS = tuple(idx for _, idx in _TYPE_CONDITION)
_B_WITNESS = tuple((i, j + 3, k, l + 3) for i, j, k, l in _B_INDICES)
_KL_TAKE, _GRAY_TAKE = np.array(_KL_AT), np.array(_GRAY_OFFSETS)


@dataclass(frozen=True)
class KahlerLikeReport:
    """Residues of the type condition and of the Bianchi B-tensor, with a verdict.

    The verdict reflects the full enumeration; the witness lists are capped
    at ``witness_cap`` entries each, in lexicographic index order.
    """

    verdict: bool
    type_residues: tuple
    bianchi_residues: tuple
    n_type_nonzero: int
    n_bianchi_nonzero: int
    witness_cap: int = DEFAULT_WITNESS_CAP


def _kahler_like(t, dens, witness_cap):
    """The KahlerLikeReport of each spec of a stack array t (2, S, 648) gathered at
    _KL_AT, spec s over dens[s]: type entries are tested against zero and each B
    entry by comparing its two curvature entries, so nothing is subtracted but a
    witness value, from Python ints."""
    hit_type = (t[:, :, :_NT] != 0).any(0)
    p = t[:, :, _NT:]
    q = p[:, :, _B_SWAP]
    hit_b = (p != q).any(0)
    reports = []
    for s, (den, n_type, n_b) in enumerate(zip(dens, hit_type.sum(1).tolist(),
                                                hit_b.sum(1).tolist())):
        type_res = bianchi_res = ()
        if n_type and witness_cap > 0:
            at = np.flatnonzero(hit_type[s])[:witness_cap]
            type_res = tuple((_TYPE_WITNESS[m], numerator_value(a, b, den))
                             for m, a, b in zip(at.tolist(), *t[:, s, at].tolist()))
        if n_b and witness_cap > 0:
            at = np.flatnonzero(hit_b[s])[:witness_cap]
            (pr, pi), (qr, qi) = p[:, s, at].tolist(), q[:, s, at].tolist()
            bianchi_res = tuple((_B_WITNESS[m], numerator_value(a - c, b - d, den))
                                for m, a, b, c, d in zip(at.tolist(), pr, pi, qr, qi))
        reports.append(KahlerLikeReport(n_type == 0 and n_b == 0, type_res, bianchi_res,
                                        n_type, n_b, witness_cap))
    return reports


def kahler_like_check(curv: CurvatureTensor, witness_cap: int = DEFAULT_WITNESS_CAP) -> KahlerLikeReport:
    """Evaluate the two Kahler-like conditions on a curvature tensor.

    Type residues collect nonzero R_{ij..} (first pair unbarred) and
    R_{..kl} (last pair unbarred); by the reality of R this also covers the
    conjugate blocks.  Bianchi residues collect nonzero B_{i jb k lb}.
    The one-spec stack of _kahler_like.
    """
    z, dens = _stack((curv.tensor,))
    return _kahler_like(np.take(z, _KL_TAKE, axis=2), dens, witness_cap)[0]


@dataclass(frozen=True)
class FlatnessResult:
    flat: bool
    witness: tuple | None = None  # (index tuple, value)


def _flatness(z, dens):
    """The FlatnessResult of each spec of a stored stack array z (2, S, 1296): flat
    when no entry is nonzero, else the first nonzero entry, lexicographically."""
    hits = _first_hits((z != 0).any(0), z, dens, all_indices(4))
    return [FlatnessResult(hit is None, hit) for hit in hits]


def flatness_check(curv: CurvatureTensor) -> FlatnessResult:
    """True when every curvature component vanishes; else the first nonzero entry.
    The one-spec stack of _flatness."""
    return _flatness(*_stack((curv.tensor,)))[0]


def _gray(t):
    """The Gray verdict of each spec of a stack array t (2, S, 162) gathered at
    _GRAY_OFFSETS: true when no entry is hit."""
    return (~(t != 0).any((0, 2))).tolist()


def gray_check_lc(curv: CurvatureTensor) -> bool:
    """The Gray-type vanishing for the Levi-Civita curvature.

    Checks R(X, Y, Zb, Wb) = R(X, Y, Z, Wb) = 0 over (1,0)-frame vectors.
    Only meaningful for the torsion-free connection; rejects other specs.
    The one-spec stack of _gray.
    """
    spec = curv.spec
    if not spec.is_lc:
        raise ValueError(f"gray check applies to the Levi-Civita connection, got {spec.label()}")
    return _gray(np.take(_stack((curv.tensor,))[0], _GRAY_TAKE, axis=2))[0]


def stack_verdicts(specs, z, dens, witness_cap: int):
    """[(KahlerLikeReport, FlatnessResult, gray)] of each spec of a stored curvature
    stack (z, dens), z of shape (2, S, 1296) in specs' order, with gray the Gray
    verdict for a Levi-Civita spec and None for the others.  Each equals what
    kahler_like_check, flatness_check and gray_check_lc give on the spec's tensor."""
    reports = _kahler_like(np.take(z, _KL_TAKE, axis=2), dens, witness_cap)
    grays = _gray(np.take(z, _GRAY_TAKE, axis=2))
    return [(report, flat, gray if spec.is_lc else None)
            for spec, report, flat, gray in zip(specs, reports, _flatness(z, dens), grays)]


# -- JSON wire format ---------------------------------------------------------

def _residue_record(idx, value):
    i, h, k, l = idx
    return {"i": index_name(i), "h": index_name(h), "k": index_name(k),
            "l": index_name(l), "value": str(value)}


def report_to_json(report: KahlerLikeReport) -> str:
    doc = {
        "verdict": report.verdict,
        "type_residues": [_residue_record(idx, v) for idx, v in report.type_residues],
        "bianchi_residues": [_residue_record(idx, v) for idx, v in report.bianchi_residues],
        "n_type_nonzero": report.n_type_nonzero,
        "n_bianchi_nonzero": report.n_bianchi_nonzero,
    }
    return json.dumps(doc, separators=(",", ":"))
