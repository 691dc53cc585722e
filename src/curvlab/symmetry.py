"""Curvature symmetry verdicts: the Kahler-like conditions, flatness, and the Gray test.

A metric connection is Kahler-like when its curvature satisfies both

  - the type condition: R_{ij..} = R_{..kl} = 0 whenever the first or the
    last index pair is of pure type, and
  - the first-Bianchi condition expressed through the tensor
    B_{i jb k lb} = R_{i jb k lb} - R_{k jb i lb} = 0.

Both checks enumerate components exhaustively; they are the statements
under test, not bookkeeping shortcuts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .connection import CurvatureTensor
from .scalars import GaussianRational
from .tensors import INDICES, UNBARRED, index_name

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
    """B_{i jb k lb} over unbarred (i, j, k, l); skew under i <-> k by construction."""

    __slots__ = ("data",)

    def __init__(self, curv: CurvatureTensor):
        r = curv.tensor
        self.data = [
            r[i, j + 3, k, l + 3] - r[k, j + 3, i, l + 3]
            for i in range(3) for j in range(3) for k in range(3) for l in range(3)
        ]

    def component(self, i: int, j: int, k: int, l: int) -> GaussianRational:
        """Entry at zero-based unbarred indices (i, j, k, l)."""
        return self.data[((i * 3 + j) * 3 + k) * 3 + l]

    def nonzero(self):
        n = 0
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    for l in range(3):
                        v = self.data[n]
                        n += 1
                        if not v.is_zero():
                            yield (i, j, k, l), v

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.data)


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
    """
    r = curv.tensor
    type_res = []
    n_type = 0
    for idx in _type_condition_indices():
        v = r[idx]
        if not v.is_zero():
            n_type += 1
            if len(type_res) < witness_cap:
                type_res.append((idx, v))
    # lexicographic enumeration keeps witness lists reproducible

    b = BTensor(curv)
    bianchi_res = []
    n_bianchi = 0
    for (i, j, k, l), v in b.nonzero():
        n_bianchi += 1
        if len(bianchi_res) < witness_cap:
            bianchi_res.append(((i, j + 3, k, l + 3), v))

    return KahlerLikeReport(
        verdict=(n_type == 0 and n_bianchi == 0),
        type_residues=tuple(type_res),
        bianchi_residues=tuple(bianchi_res),
        n_type_nonzero=n_type,
        n_bianchi_nonzero=n_bianchi,
        witness_cap=witness_cap,
    )


def _type_condition_indices():
    # the union of the two blocks, in lexicographic order
    for i in INDICES:
        for j in INDICES:
            first_pure = i < 3 and j < 3
            for k in INDICES:
                for l in INDICES:
                    if first_pure or (k < 3 and l < 3):
                        yield (i, j, k, l)


@dataclass(frozen=True)
class FlatnessResult:
    flat: bool
    witness: tuple | None = None  # (index tuple, value)


def flatness_check(curv: CurvatureTensor) -> FlatnessResult:
    """True when every curvature component vanishes; else the first nonzero entry."""
    for idx, v in curv.tensor.nonzero():
        return FlatnessResult(False, (idx, v))
    return FlatnessResult(True, None)


def gray_check_lc(curv: CurvatureTensor) -> bool:
    """The Gray-type vanishing for the Levi-Civita curvature.

    Checks R(X, Y, Zb, Wb) = R(X, Y, Z, Wb) = 0 over (1,0)-frame vectors.
    Only meaningful for the torsion-free connection; rejects other specs.
    """
    spec = curv.spec
    if not (spec.eps == 0 and spec.rho == 0):
        raise ValueError(f"gray check applies to the Levi-Civita connection, got {spec.label()}")
    r = curv.tensor
    for i in UNBARRED:
        for j in UNBARRED:
            for k in UNBARRED:
                for l in UNBARRED:
                    if not r[i, j, k + 3, l + 3].is_zero():
                        return False
                    if not r[i, j, k, l + 3].is_zero():
                        return False
    return True


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
