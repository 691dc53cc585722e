"""Closed-form component tables used as exact cross-checks of the tensor pipeline.

Three tables are available, keyed by family:

  "Ni"     - curvature and Bianchi-tensor components of the Gauduchon family
             on Family (Ni), in the normalization r2 = 1, v = z = 0;
  "Si-B0"  - the four Bianchi-tensor components of the Chern connection on
             Family (Si), in the normalization v = z = 0 (A-independent);
  "Si-g20" - curvature and Bianchi-tensor components of the Gauduchon family
             on the A = i point of Family (Si), in the normalization u = 0.

Every entry is a closed-form expression evaluated exactly at a point; the
comparison against the tensor pipeline is componentwise exact equality.
"""

from __future__ import annotations

from dataclasses import dataclass

from .catalog import FamilySpec, instantiate
from .connection import ConnectionSpec, curvature_of
from .metric import HermitianData, MetricParams, build_metric
from .scalars import GaussianRational, I, Rat, gr
from .symmetry import BTensor

__all__ = [
    "ORACLE_FAMILIES",
    "OracleDomainError",
    "appendix_oracle",
    "compare_components",
]

ORACLE_FAMILIES = ("Ni", "Si-B0", "Si-g20")


class OracleDomainError(ValueError):
    """The requested point is outside the normalization the table assumes."""


def _label(kind: str, i: int, j: int, k: int, l: int) -> str:
    # barred slots are fixed by the table shapes: R[i,j,k,lb], B[i,jb,k,lb]
    names = ("1", "2", "3")
    if kind == "R":
        return f"R[{names[i]},{names[j]},{names[k]},{names[l]}b]"
    return f"B[{names[i]},{names[j]}b,{names[k]},{names[l]}b]"


def _family_ni_table(rho, lam, d, s2, t2, u, eps):
    """Gauduchon-family components on (Ni) with r2 = 1, v = z = 0."""
    e = GaussianRational(eps)
    rho, lam, d, u = gr(rho), gr(lam), gr(d), gr(u)
    db = d.conjugate()
    ub = u.conjugate()
    t2g = GaussianRational(t2)
    denom = GaussianRational(s2 - u.abs2())
    t4 = t2g * t2g
    one, two = gr(1), gr(2)
    im_u = GaussianRational(u.im)
    im_ud = GaussianRational((u * d).im)

    r_121_1 = two * t2g * e * (one - e) * rho
    table = {
        ("R", 0, 1, 0, 0): r_121_1,
        ("R", 0, 1, 1, 0): lam * r_121_1,
        ("R", 0, 1, 1, 1): db * r_121_1,
        ("R", 0, 1, 2, 2): (t4 * e / denom) * rho * (two * e - one) * (gr(s2) + I * lam * u + db),
        ("R", 0, 2, 0, 2): (gr(-2) * I * t4 * e * e / denom) * rho * u,
        ("R", 0, 2, 1, 2): (gr(-2) * t4 * e * e / denom) * rho * (I * lam * u + db),
        ("R", 0, 2, 2, 0): (-(t4 * e) / denom) * (two * e - one) * (gr(s2) + I * lam * u),
        ("R", 0, 2, 2, 1): (-(I * t4 * e) / denom) * (two * e - one) * u * db,
        ("R", 1, 2, 0, 2): (two * gr(s2) * t4 * e * e / denom) * rho,
        ("R", 1, 2, 1, 2): (two * t4 * e * e / denom) * rho * (lam * gr(s2) - I * ub * db),
        ("R", 1, 2, 2, 0): (-(t4 * e) / denom) * (two * e - one)
                            * (lam * (gr(s2) + I * lam * u + db) - I * ub * db),
        ("R", 1, 2, 2, 1): (-(t4 * e) / denom) * (two * e - one) * db * (I * lam * u + db),
    }

    b_1121 = (-(t2g) / two) * (two * e - one) * (two * e - one) * lam
    poly1 = two * e * (lam * lam - d + gr(4) * rho * e) + db * (gr(4) * e * e - gr(6) * e + one)
    b_1233 = (-(t4) / (two * denom)) * (gr(4) * I * rho * u * e * e
                                        + (two * e - one) * (gr(4) * e - one) * (lam * gr(s2) + I * u * d))
    b_1332 = (t4 * e / denom) * ((gr(4) * e - one) * (lam * gr(s2) + I * u * d)
                                 - two * e * db * (lam + I * u))
    table.update({
        ("B", 0, 0, 1, 0): b_1121,
        ("B", 0, 0, 1, 1): (-(t2g) / two) * poly1,
        ("B", 0, 0, 2, 2): (t4 / (two * denom)) * (gr(4) * rho * e * e
                                                   - gr(s2) * (two * e - one) * (gr(4) * e - one)),
        ("B", 0, 1, 1, 0): (t2g / two) * (two * e * (gr(4) * rho * e - db)
                                          + (d - lam * lam) * (gr(4) * e * e - gr(6) * e + one)),
        ("B", 0, 1, 1, 1): db * b_1121,
        ("B", 0, 1, 2, 2): b_1233,
        ("B", 0, 2, 1, 2): (two * t4 * e * e / denom) * rho * (d + gr(s2) - I * lam * ub),
        ("B", 0, 2, 2, 0): (-(t4 * e) / denom) * (gr(s2) + two * e * (lam * lam - gr(s2)
                                                                      - two * lam * im_u)),
        ("B", 0, 2, 2, 1): b_1332,
        ("B", 1, 0, 2, 2): b_1233.conjugate(),
        ("B", 1, 1, 2, 2): (-(t4) / (two * denom)) * ((two * e - one) * (gr(4) * e - one)
                                                      * (lam * lam * gr(s2) - two * lam * im_ud + d.abs2())
                                                      - gr(4) * gr(s2) * rho * e * e),
        ("B", 1, 2, 2, 0): b_1332.conjugate(),
        ("B", 1, 2, 2, 1): (t4 * e / denom) * ((two * e - one) * GaussianRational(d.abs2())
                                               + (gr(4) * e - one) * lam * (lam * gr(s2) - two * im_ud)),
    })
    return table


def _family_si_b0_table(r2, s2, u):
    """Chern-connection Bianchi components on (Si) with v = z = 0; independent of A."""
    u = gr(u)
    denom = GaussianRational(r2 * s2 - u.abs2())
    b_1332 = gr(-2) * I * GaussianRational(r2 * s2) * u / denom
    return {
        ("B", 0, 2, 2, 0): GaussianRational(2 * r2) * GaussianRational(u.abs2()) / denom,
        ("B", 0, 2, 2, 1): b_1332,
        ("B", 1, 2, 2, 0): b_1332.conjugate(),
        ("B", 1, 2, 2, 1): GaussianRational(2 * s2) * GaussianRational(u.abs2()) / denom,
    }


def _family_g20_table(r2, s2, t2, v, z, eps, det_scaled):
    """Gauduchon-family components on the A = i point of (Si) with u = 0.

    det_scaled is 8i det(Omega); the table's 1/(8 det) and 1/(16 det)
    prefactors become i/det_scaled and i/(2 det_scaled).
    """
    e = GaussianRational(eps)
    v, z = gr(v), gr(z)
    vb, zb = v.conjugate(), z.conjugate()
    rs = GaussianRational(r2 * s2)
    rst = GaussianRational(r2 * s2 * t2)
    det = det_scaled
    one, two = gr(1), gr(2)
    e21 = two * e - one
    e41 = gr(4) * e - one
    v2 = GaussianRational(v.abs2())
    z2 = GaussianRational(z.abs2())

    r_133_3 = (I * e * z / det) * (rst - two * e * GaussianRational(r2) * v2
                                   + two * (e - one) * GaussianRational(s2) * z2)
    r_233_3 = (I * e * v / det) * (rst + two * (e - one) * GaussianRational(r2) * v2
                                   - two * e * GaussianRational(s2) * z2)
    r_132_3 = -(e * e21 * rs * v * z) / det
    table = {
        ("R", 0, 2, 0, 2): (e * e21 * rs) * z * z / det,
        ("R", 0, 2, 1, 2): r_132_3,
        ("R", 0, 2, 2, 2): r_133_3,
        # R[2,3,1,3b] equals +R[1,3,2,3b]; the sign is cross-checked against
        # the same component's closed form in the Ni table
        ("R", 1, 2, 0, 2): r_132_3,
        ("R", 1, 2, 1, 2): (e * e21 * rs) * v * v / det,
        ("R", 1, 2, 2, 2): r_233_3,
    }

    b_1233 = (e * e21 * rs) * vb * z / det
    b_1332 = -(e21 * e41 * rs) * vb * z / (two * det)
    table.update({
        ("B", 0, 0, 2, 2): -(e * e21 * rs) * z2 / det,
        ("B", 0, 1, 2, 2): b_1233,
        ("B", 0, 2, 2, 0): (e21 * e41 * rs) * z2 / (two * det),
        ("B", 0, 2, 2, 1): b_1332,
        ("B", 0, 2, 2, 2): (I * z / (two * det)) * (e41 * rst
                                                    + two * (two * e * e - gr(4) * e + one) * GaussianRational(r2) * v2
                                                    - gr(4) * e * e * GaussianRational(s2) * z2),
        ("B", 1, 0, 2, 2): b_1233.conjugate(),
        ("B", 1, 1, 2, 2): -(e * e21 * rs) * v2 / det,
        ("B", 1, 2, 2, 0): b_1332.conjugate(),
        ("B", 1, 2, 2, 1): (e21 * e41 * rs) * v2 / (two * det),
        ("B", 1, 2, 2, 2): (I * v / (two * det)) * (e41 * rst
                                                    - gr(4) * e * e * GaussianRational(r2) * v2
                                                    + two * (two * e * e - gr(4) * e + one) * GaussianRational(s2) * z2),
    })
    return table


@dataclass(frozen=True)
class OracleCase:
    """One oracle evaluation: the family point, metric, and Gauduchon parameter."""

    family_key: str
    structure: FamilySpec
    metric: MetricParams
    eps: Rat


def _validate(case: OracleCase) -> HermitianData:
    m = case.metric
    key = case.family_key
    if key == "Ni":
        if case.structure.id != "Ni":
            raise OracleDomainError("the Ni table needs a family (Ni) structure")
        if m.r2 != 1 or not (m.v.is_zero() and m.z.is_zero()):
            raise OracleDomainError("the Ni table assumes r2 = 1 and v = z = 0")
    elif key == "Si-B0":
        if case.structure.id != "Si":
            raise OracleDomainError("the Si-B0 table needs a family (Si) structure")
        if not (m.v.is_zero() and m.z.is_zero()):
            raise OracleDomainError("the Si-B0 table assumes v = z = 0")
        if case.eps != 0:
            raise OracleDomainError("the Si-B0 table is for the Chern connection (eps = 0)")
    elif key == "Si-g20":
        if case.structure.id != "Si" or case.structure.param("A") != I:
            raise OracleDomainError("the Si-g20 table needs family (Si) with A = i")
        if not m.u.is_zero():
            raise OracleDomainError("the Si-g20 table assumes u = 0")
    else:
        raise OracleDomainError(f"unknown oracle family {key!r}; known: {ORACLE_FAMILIES}")
    return build_metric(m)


def _evaluate(case: OracleCase):
    """The validated metric and the table as {(kind, i, j, k, l): expected value}."""
    h = _validate(case)
    m = case.metric
    if case.family_key == "Ni":
        s = case.structure
        raw = _family_ni_table(s.param("rho"), s.param("lambda"), s.param("D"),
                               m.s2, m.t2, m.u, case.eps)
    elif case.family_key == "Si-B0":
        raw = _family_si_b0_table(m.r2, m.s2, m.u)
    else:
        raw = _family_g20_table(m.r2, m.s2, m.t2, m.v, m.z, case.eps, h.det_scaled)
    return h, raw


def appendix_oracle(case: OracleCase) -> dict:
    """Evaluate every closed-form component of the table at the given point.

    Returns {label: expected value} with labels like 'R[1,2,1,1b]'.
    """
    return {_label(*key): v for key, v in _evaluate(case)[1].items()}


def compare_components(case: OracleCase):
    """[(label, expected, got, equal)] sorted by label; exact equality per component.

    The table is evaluated once and the pipeline is read at its raw keys:
    R[i,j,k,lb] from the curvature, B[i,jb,k,lb] from the Bianchi tensor.
    """
    h, raw = _evaluate(case)
    curv = curvature_of(ConnectionSpec.gauduchon(case.eps), h, instantiate(case.structure))
    b = BTensor(curv)
    rows = []
    for (kind, i, j, k, l), expected in raw.items():
        got = curv.tensor[i, j, k, l + 3] if kind == "R" else b.component(i, j, k, l)
        rows.append((_label(kind, i, j, k, l), expected, got, expected == got))
    return sorted(rows, key=lambda row: row[0])
