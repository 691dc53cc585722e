"""Curvature symmetry verdicts: the Kahler-like conditions, flatness, and the Gray test.

A metric connection is Kahler-like when its curvature satisfies both

  - the type condition: R_{ij..} = R_{..kl} = 0 whenever the first or the
    last index pair is of pure type, and
  - the first-Bianchi condition expressed through the tensor
    B_{i jb k lb} = R_{i jb k lb} - R_{k jb i lb} = 0.

Both checks enumerate components exhaustively; they are the statements
under test, not bookkeeping shortcuts.  Every check is a zero test on the
Gaussian-integer numerators the curvature stores (see tensors.MultiTensor),
so a GaussianRational value is built only for an entry that is reported.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from .connection import CurvatureTensor
from .scalars import GaussianRational
from .tensors import BARRED, INDICES, UNBARRED, all_indices, index_name, numerator_value

__all__ = [
    "BTensor",
    "KahlerLikeReport",
    "kahler_like_check",
    "FlatnessResult",
    "flatness_check",
    "gray_check_lc",
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

    def nonzero_offsets(self):
        """Yield (m, (i, j, k, l)) for every nonzero entry, lexicographically."""
        for m, idx in enumerate(_B_INDICES):
            if self.re[m] or self.im[m]:
                yield m, idx

    def nonzero(self):
        for m, idx in self.nonzero_offsets():
            yield idx, numerator_value(self.re[m], self.im[m], self.den)

    def is_zero(self) -> bool:
        return not any(self.re) and not any(self.im)


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


def kahler_like_check(curv: CurvatureTensor, witness_cap: int = DEFAULT_WITNESS_CAP) -> KahlerLikeReport:
    """Evaluate the two Kahler-like conditions on a curvature tensor.

    Type residues collect nonzero R_{ij..} (first pair unbarred) and
    R_{..kl} (last pair unbarred); by the reality of R this also covers the
    conjugate blocks.  Bianchi residues collect nonzero B_{i jb k lb}.
    Both are zero tests on numerators; values are built for witnesses only.
    """
    r = curv.tensor
    re, im = r.re, r.im
    type_res = []
    n_type = 0
    # lexicographic enumeration keeps witness lists reproducible
    for n, idx in _TYPE_CONDITION:
        if re[n] or im[n]:
            n_type += 1
            if len(type_res) < witness_cap:
                type_res.append((idx, numerator_value(re[n], im[n], r.den)))

    b = BTensor(curv)
    bianchi_res = []
    n_bianchi = 0
    for m, (i, j, k, l) in b.nonzero_offsets():
        n_bianchi += 1
        if len(bianchi_res) < witness_cap:
            bianchi_res.append(((i, j + 3, k, l + 3), numerator_value(b.re[m], b.im[m], b.den)))

    return KahlerLikeReport(
        verdict=(n_type == 0 and n_bianchi == 0),
        type_residues=tuple(type_res),
        bianchi_residues=tuple(bianchi_res),
        n_type_nonzero=n_type,
        n_bianchi_nonzero=n_bianchi,
        witness_cap=witness_cap,
    )


@dataclass(frozen=True)
class FlatnessResult:
    flat: bool
    witness: tuple | None = None  # (index tuple, value)


def flatness_check(curv: CurvatureTensor) -> FlatnessResult:
    """True when every curvature component vanishes; else the first nonzero entry."""
    r = curv.tensor
    for n, idx in r.nonzero_offsets():
        return FlatnessResult(False, (idx, numerator_value(r.re[n], r.im[n], r.den)))
    return FlatnessResult(True, None)


def gray_check_lc(curv: CurvatureTensor) -> bool:
    """The Gray-type vanishing for the Levi-Civita curvature.

    Checks R(X, Y, Zb, Wb) = R(X, Y, Z, Wb) = 0 over (1,0)-frame vectors.
    Only meaningful for the torsion-free connection; rejects other specs.
    """
    spec = curv.spec
    if not (spec.eps == 0 and spec.rho == 0):
        raise ValueError(f"gray check applies to the Levi-Civita connection, got {spec.label()}")
    re, im = curv.tensor.re, curv.tensor.im
    return not any(re[n] or im[n] for n in _GRAY_OFFSETS)


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
