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
_TABLES declares each key's domain rules and table function.  A row of
compare_components is one (point, eps, component): a point's tables are built
once for all its eps, whose connections read one connection plane.
"""

from __future__ import annotations

from dataclasses import dataclass

from .catalog import FamilySpec, instantiate
from .connection import ConnectionPlane, ConnectionSpec, curvature_stack
from .metric import HermitianData, MetricParams, build_metric
from .scalars import GaussianRational, I, Rat, gr
from .symmetry import _B_OFFSETS
from .tensors import numerator_value

__all__ = [
    "ORACLE_FAMILIES",
    "OracleDomainError",
    "appendix_oracle",
    "compare_components",
]

class OracleDomainError(ValueError):
    """The requested point is outside the normalization the table assumes."""


def _label(kind: str, i: int, j: int, k: int, l: int) -> str:
    # barred slots are fixed by the table shapes: R[i,j,k,lb], B[i,jb,k,lb]
    if kind == "R":
        return f"R[{i + 1},{j + 1},{k + 1},{l + 1}b]"
    return f"B[{i + 1},{j + 1}b,{k + 1},{l + 1}b]"


def _family_ni_table(s: FamilySpec, m: MetricParams, h: HermitianData, eps):
    """Gauduchon-family components on (Ni) with r2 = 1, v = z = 0."""
    e = GaussianRational(eps)
    rho, lam, d, u = s.param("rho"), s.param("lambda"), s.param("D"), m.u
    s2, t2 = m.s2, m.t2
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


def _family_si_b0_table(s: FamilySpec, m: MetricParams, h: HermitianData, eps):
    """Chern-connection Bianchi components on (Si) with v = z = 0; independent of A."""
    r2, s2, u = m.r2, m.s2, m.u
    denom = GaussianRational(r2 * s2 - u.abs2())
    b_1332 = gr(-2) * I * GaussianRational(r2 * s2) * u / denom
    return {
        ("B", 0, 2, 2, 0): GaussianRational(2 * r2) * GaussianRational(u.abs2()) / denom,
        ("B", 0, 2, 2, 1): b_1332,
        ("B", 1, 2, 2, 0): b_1332.conjugate(),
        ("B", 1, 2, 2, 1): GaussianRational(2 * s2) * GaussianRational(u.abs2()) / denom,
    }


def _family_g20_table(s: FamilySpec, m: MetricParams, h: HermitianData, eps):
    """Gauduchon-family components on the A = i point of (Si) with u = 0.

    h.det_scaled is 8i det(Omega); the table's 1/(8 det) and 1/(16 det)
    prefactors become i/det_scaled and i/(2 det_scaled).
    """
    e = GaussianRational(eps)
    r2, s2, t2, v, z, det = m.r2, m.s2, m.t2, m.v, m.z, h.det_scaled
    vb, zb = v.conjugate(), z.conjugate()
    rs = GaussianRational(r2 * s2)
    rst = GaussianRational(r2 * s2 * t2)
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


# key -> (rules, table): the (text, test(structure, metric, eps)) rules in check order,
# the first naming the structure the table is written for, and the table function
# (structure, metric, h, eps) -> {(kind, i, j, k, l): expected value}
_TABLES = {
    "Ni": ((("the Ni table needs a family (Ni) structure", lambda s, m, e: s.id == "Ni"),
            ("the Ni table assumes r2 = 1 and v = z = 0",
             lambda s, m, e: m.r2 == 1 and m.v.is_zero() and m.z.is_zero())),
           _family_ni_table),
    "Si-B0": ((("the Si-B0 table needs a family (Si) structure", lambda s, m, e: s.id == "Si"),
               ("the Si-B0 table assumes v = z = 0",
                lambda s, m, e: m.v.is_zero() and m.z.is_zero()),
               ("the Si-B0 table is for the Chern connection (eps = 0)", lambda s, m, e: e == 0)),
              _family_si_b0_table),
    "Si-g20": ((("the Si-g20 table needs family (Si) with A = i",
                 lambda s, m, e: s.id == "Si" and s.param("A") == I),
                ("the Si-g20 table assumes u = 0", lambda s, m, e: m.u.is_zero())),
               _family_g20_table),
}
ORACLE_FAMILIES = tuple(_TABLES)


def _checked_table(key: str, structure: FamilySpec, metric: MetricParams, eps_values):
    """The table function of key, after raising the first rule the point breaks at any eps."""
    if key not in _TABLES:
        raise OracleDomainError(f"unknown oracle family {key!r}; known: {ORACLE_FAMILIES}")
    rules, table = _TABLES[key]
    for eps in eps_values:
        for text, test in rules:
            if not test(structure, metric, eps):
                raise OracleDomainError(text)
    return table


def appendix_oracle(case: OracleCase) -> dict:
    """Evaluate every closed-form component of the table at the given point.

    Returns {label: expected value} with labels like 'R[1,2,1,1b]'.
    """
    table = _checked_table(case.family_key, case.structure, case.metric, (case.eps,))
    raw = table(case.structure, case.metric, build_metric(case.metric), case.eps)
    return {_label(*key): v for key, v in raw.items()}


def compare_components(family_key: str, structure: FamilySpec, metric: MetricParams,
                       eps_values):
    """[(eps, label, expected, got, equal)], eps-major and sorted by label within each eps.

    The rules are checked at every eps first; then the point and its connection plane
    are built once for every eps, and the point's curvature stack is read at the table's
    raw keys: R[i,j,k,lb] at its offset, B[i,jb,k,lb] at its two symmetry._B_OFFSETS.
    """
    table = _checked_table(family_key, structure, metric, eps_values)
    h = build_metric(metric)
    z, dens = curvature_stack([ConnectionSpec.gauduchon(eps) for eps in eps_values],
                              ConnectionPlane(h, instantiate(structure)))
    rows = []
    for eps, (re, im), den in zip(eps_values, z.transpose(1, 0, 2).tolist(), dens):
        raw = sorted((_label(*key), key, v) for key, v in table(structure, metric, h, eps).items())
        for label, (kind, i, j, k, l), expected in raw:
            if kind == "R":
                n = 216 * i + 36 * j + 6 * k + l + 3
                got = numerator_value(re[n], im[n], den)
            else:
                p, q = _B_OFFSETS[27 * i + 9 * j + 3 * k + l]
                got = numerator_value(re[p] - re[q], im[p] - im[q], den)
            rows.append((eps, label, expected, got, expected == got))
    return rows
