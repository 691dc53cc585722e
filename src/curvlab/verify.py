"""Sampling-based exact verification: identity testing and the theorem scoreboard.

PASS semantics: an identity asserted to vanish is evaluated exactly at many
random rational points; exact vanishing everywhere is strong evidence of
identical vanishing (the residues are fixed rational functions of bounded
degree).  A FAIL is a proof: it carries an exact nonzero counterexample.

The theorem scoreboard reproduces the classification results case by case:
positive cases must come out Kahler-like at every sampled in-locus point,
negative cases must fail with a nonzero witness at every sampled point.
Conjecture-level implications are re-checked on every configuration the
sweep touches.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import os
import random
from dataclasses import dataclass, field

from .algebra import d_component, exterior_d, validate_lie_algebra
from .catalog import FamilySpec, instantiate
from .connection import (
    ConnectionSpec,
    PRESETS,
    christoffel,
    connection_plane,
    curvature,
    curvature_symmetry_failures,
    nabla_g_failures,
    nabla_j_failures,
    torsion_and_bianchi_defect,
)
from .metric import MetricParams, build_metric, classify_metric
from .scalars import GaussianRational, Rat, gr
from .symmetry import flatness_check, gray_check_lc, kahler_like_check
from .tensors import INDICES, all_indices, contract, index_name, numerator_value

__all__ = [
    "SamplePlan",
    "SamplingError",
    "IdentityResult",
    "verify_identity_zero",
    "sample_metric",
    "THEOREM_CASES",
    "theorem_suite",
    "structural_sweep",
    "Scoreboard",
]

DEFAULT_EPS_SET = (Rat(0), Rat(1, 6), Rat(1, 4), Rat(1, 3), Rat(1, 2), Rat(2, 3))
RANDOM_EPS_COUNT = 1  # seeded random eps off {0, 1/2} added to DEFAULT_EPS_SET per case
EPS_HEIGHT = 10  # the random eps are a/b with |a| <= 2 EPS_HEIGHT, 1 <= b <= EPS_HEIGHT


class SamplingError(RuntimeError):
    """No valid sample found within the attempt budget."""


@dataclass(frozen=True)
class SamplePlan:
    """Seeded sampling parameters shared by the verification entry points."""

    seed: int = 0
    points_per_case: int = 5

    def rng_for(self, tag: str) -> random.Random:
        # per-tag streams keep results independent of evaluation order
        return random.Random(f"{self.seed}:{tag}")


def _gauduchon_eps(rng: random.Random):
    """The named eps values plus seeded random rationals off {0, 1/2}."""
    eps = list(DEFAULT_EPS_SET)
    while len(eps) < len(DEFAULT_EPS_SET) + RANDOM_EPS_COUNT:
        e = Rat(rng.randint(-2 * EPS_HEIGHT, 2 * EPS_HEIGHT), rng.randint(1, EPS_HEIGHT))
        if e != 0 and e != Rat(1, 2) and e not in eps:
            eps.append(e)
    return eps


def _rand_pos(rng, height):
    return Rat(rng.randint(1, height), rng.randint(1, max(1, height // 2)))


def _rand_small_gauss(rng, den=5):
    return GaussianRational(Rat(rng.randint(-2, 2), den), Rat(rng.randint(-2, 2), den))


def sample_metric(rng, height=10, shape="any", attempts=200) -> MetricParams:
    """Draw metric parameters of the requested shape until the positivity holds.

    Shapes: 'any' (generic), 'diag' (u=v=z=0), 'diag-r1' (r2=1, u=v=z=0),
    'offu-r1' (r2=1, v=z=0, u != 0), 'u-only' (v=z=0, u != 0),
    'vz-only' (u=0, v and z not both 0).
    """
    for _ in range(attempts):
        r2, s2, t2 = (_rand_pos(rng, height) for _ in range(3))
        u = v = z = GaussianRational(0)
        if shape == "any":
            u, v, z = (_rand_small_gauss(rng) for _ in range(3))
        elif shape == "diag":
            pass
        elif shape == "diag-r1":
            r2 = Rat(1)
        elif shape == "offu-r1":
            r2 = Rat(1)
            u = _rand_small_gauss(rng)
            if u.is_zero():
                continue
        elif shape == "u-only":
            u = _rand_small_gauss(rng)
            if u.is_zero():
                continue
        elif shape == "vz-only":
            v, z = (_rand_small_gauss(rng) for _ in range(2))
            if v.is_zero() and z.is_zero():
                continue
        else:
            raise ValueError(f"unknown metric shape {shape!r}")
        p = MetricParams(r2, s2, t2, u, v, z)
        if not p.constraint_failures():
            return p
    raise SamplingError(f"no valid metric of shape {shape!r} in {attempts} attempts")


@dataclass(frozen=True)
class IdentityResult:
    name: str
    passed: bool
    points_checked: int
    counterexample: tuple | None = None  # (point description, residue label, residue value)

    def describe(self) -> str:
        if self.passed:
            return f"PASS {self.name} ({self.points_checked} points)"
        where, label, value = self.counterexample
        return f"FAIL {self.name}: {label} = {value} at {where}"


def verify_identity_zero(name: str, residues, points) -> IdentityResult:
    """Check that every residue vanishes exactly at every point.

    ``residues(point)`` yields (label, GaussianRational) pairs; ``points``
    is a finite iterable of point descriptions accepted by the callback.
    """
    checked = 0
    for point in points:
        checked += 1
        for label, value in residues(point):
            if not value.is_zero():
                return IdentityResult(name, False, checked, (repr(point), label, value))
    return IdentityResult(name, True, checked)


# -- theorem cases -------------------------------------------------------------

_PYTH_UNIT = ("3/5+4/5*i", "-3/5+4/5*i", "5/13+12/13*i")
_NONUNIT_A = ("2", "1/2", "1/3*i", "1+i", "-3/2+1/2*i")


def _draw_ni_rho1(rng):
    lam = Rat(rng.randint(0, 3), rng.randint(1, 3))
    d = GaussianRational(Rat(rng.randint(-3, 3), rng.randint(1, 3)),
                         Rat(rng.randint(0, 3), rng.randint(1, 3)))
    return {"rho": gr(1), "lambda": gr(lam), "D": d}


def _draw_ni_lam1(rng):
    # rho = 0, lambda = 1, Re D != 1/2 so the structure is never pluriclosed
    while True:
        d = GaussianRational(Rat(rng.randint(-3, 3), rng.randint(1, 3)),
                             Rat(rng.randint(0, 3), rng.randint(1, 3)))
        if d.re != Rat(1, 2):
            return {"rho": gr(0), "lambda": gr(1), "D": d}


def _draw_nii(rng):
    while True:
        rho = rng.choice((0, 1))
        b = GaussianRational(Rat(rng.randint(-2, 2), rng.randint(1, 3)),
                             Rat(rng.randint(-2, 2), rng.randint(1, 3)))
        c = Rat(rng.randint(0, 3), rng.randint(1, 3))
        if rho or not b.is_zero() or c != 0:
            return {"rho": gr(rho), "B": b, "c": gr(c)}


def _draw_niii(rng):
    return {"rho": gr(rng.choice((0, 1))), "sign": gr(rng.choice((1, -1)))}


def _draw_si_any(rng):
    return {"A": gr(rng.choice(("1", "i") + _PYTH_UNIT))}


def _draw_si_nonkahler(rng):
    return {"A": gr(rng.choice(("1",) + _PYTH_UNIT))}


def _draw_sii(rng):
    return {"x": gr(Rat(rng.randint(1, 8), rng.randint(1, 4)))}


def _draw_siii1(rng):
    return {"sign": gr(rng.choice((1, -1)))}


def _draw_siv2(rng):
    return {"x": gr(rng.choice((0, 1)))}


def _draw_siv3(rng):
    return {"A": gr(rng.choice(_NONUNIT_A))}


_STRUCT_DRAWS = {
    "ni-rho1": _draw_ni_rho1,
    "ni-lam1": _draw_ni_lam1,
    "nii": _draw_nii,
    "niii": _draw_niii,
    "si-any": _draw_si_any,
    "si-nonkahler": _draw_si_nonkahler,
    "sii": _draw_sii,
    "siii1": _draw_siii1,
    "siv2": _draw_siv2,
    "siv3": _draw_siv3,
}

@dataclass(frozen=True)
class TheoremCase:
    """One scoreboard row family: expected verdict over sampled configurations."""

    case_id: str
    family: str
    structure: object  # params dict or a draw key in _STRUCT_DRAWS
    metric: str
    specs: str
    expect_klike: bool
    expect_flat: bool | None = None
    expect_flags: dict = field(default_factory=dict)
    note: str = ""


def _case(case_id, family, structure, metric, specs, klike, flat=None, flags=None, note=""):
    return TheoremCase(case_id, family, structure, metric, specs, klike, flat,
                       dict(flags or {}), note)


THEOREM_CASES = (
    # Kahler-like positives
    _case("P01-torus-chern", "Np", {"rho": 0}, "any", "chern", True, flat=True,
          flags={"kahler": True}, note="torus: any metric, Chern-flat and Kahler"),
    _case("P02-h5-chern", "Np", {"rho": 1}, "any", "chern", True, flat=True,
          flags={"balanced": True}, note="parallelizable: any metric Chern-flat"),
    _case("P03-g1-chern", "Si", {"A": 1}, "diag", "chern", True, flat=True,
          flags={"balanced": True, "kahler": False}),
    _case("P04-g20-chern", "Si", {"A": "i"}, "diag", "chern", True, flat=True,
          flags={"kahler": True}),
    _case("P05-g2a-chern", "Si", {"A": "3/5+4/5*i"}, "diag", "chern", True, flat=True,
          flags={"balanced": True, "kahler": False}),
    _case("P06-g8-par-chern", "Siv1", {}, "any", "chern", True, flat=True,
          flags={"balanced": True}),
    _case("P07-g8-split-chern", "Siv3", "siv3", "diag", "chern", True, flat=True,
          flags={"balanced": True}),
    _case("P08-sl2c-chern", "sl2c", {}, "any", "chern", True, flat=True,
          note="complex Lie algebra: Chern-flat"),
    _case("P09-h2-bismut", "Ni", {"rho": 0, "lambda": 0, "D": "i"}, "diag-r1", "bismut",
          True, flat=False, flags={"pluriclosed": True}),
    _case("P10-h8-bismut", "Ni", {"rho": 0, "lambda": 0, "D": 0}, "any", "bismut",
          True, flat=False, flags={"pluriclosed": True}),
    _case("P11-g4-bismut", "Siii1", "siii1", "diag", "bismut", True, flat=False,
          flags={"pluriclosed": True}),
    _case("P12-torus-bismut", "Np", {"rho": 0}, "any", "bismut", True, flat=True),
    _case("P13-g20-bismut", "Si", {"A": "i"}, "diag", "bismut", True, flat=True),
    _case("P14-torus-gauduchon", "Np", {"rho": 0}, "any", "gauduchon-mid", True),
    _case("P15-g20-gauduchon", "Si", {"A": "i"}, "diag", "gauduchon-mid", True),
    _case("P16-torus-lc", "Np", {"rho": 0}, "any", "lc", True),
    _case("P17-g20-lc", "Si", {"A": "i"}, "diag", "lc", True),
    # Kahler-like negatives; the witness must be nonzero at every point
    _case("N01-h5-nonchern", "Np", {"rho": 1}, "any", "gauduchon-nonchern", False),
    _case("N02-ni-rho1", "Ni", "ni-rho1", "any", "gauduchon-all", False),
    _case("N03-ni-lam1", "Ni", "ni-lam1", "any", "gauduchon-all", False),
    _case("N04-h2-off-locus", "Ni", {"rho": 0, "lambda": 0, "D": "i"}, "offu-r1",
          "bismut", False, note="u != 0 breaks the Bismut case"),
    _case("N05-h2-wrong-eps", "Ni", {"rho": 0, "lambda": 0, "D": "i"}, "diag-r1",
          "gauduchon-mid", False),
    _case("N06-h8-wrong-eps", "Ni", {"rho": 0, "lambda": 0, "D": 0}, "any",
          "gauduchon-mid", False),
    _case("N07-h8-chern", "Ni", {"rho": 0, "lambda": 0, "D": 0}, "any", "chern", False),
    _case("N08-nii", "Nii", "nii", "any", "gauduchon-all", False),
    _case("N09-niii", "Niii", "niii", "any", "gauduchon-all", False),
    _case("N10-si-offdiag-chern", "Si", "si-any", "u-only", "chern", False),
    _case("N11-si-vz-chern", "Si", "si-any", "vz-only", "chern", False),
    _case("N12-g20-vz-nonchern", "Si", {"A": "i"}, "vz-only", "gauduchon-nonchern", False),
    _case("N13-g2a-nonchern", "Si", "si-nonkahler", "any", "gauduchon-nonchern", False),
    _case("N14-sii", "Sii", "sii", "any", "gauduchon-all", False),
    _case("N15-g5", "Siii2", {}, "any", "gauduchon-all", False),
    _case("N16-g6", "Siii3", {}, "any", "gauduchon-all", False),
    _case("N17-g7", "Siii4", {"sign": 1}, "any", "gauduchon-all", False),
    _case("N18-g7-neg", "Siii4", {"sign": -1}, "any", "gauduchon-all", False),
    _case("N19-g4-chern", "Siii1", "siii1", "any", "chern", False),
    _case("N20-g4-wrong-eps", "Siii1", "siii1", "diag", "gauduchon-mid", False),
    _case("N21-g4-off-locus", "Siii1", "siii1", "u-only", "bismut", False),
    _case("N22-siv1-nonchern", "Siv1", {}, "any", "gauduchon-nonchern", False),
    _case("N23-siv2", "Siv2", "siv2", "any", "gauduchon-all", False),
    _case("N24-siv3-nonchern", "Siv3", "siv3", "any", "gauduchon-nonchern", False),
    _case("N25-siv3-offdiag-chern", "Siv3", "siv3", "u-only", "chern", False),
    _case("N26-sv", "Sv", {}, "any", "gauduchon-all", False),
    # Levi-Civita is Kahler-like only at Kahler points
    _case("L01-h5-lc", "Np", {"rho": 1}, "any", "lc", False),
    _case("L02-ni-balanced-lc", "Ni", {"rho": 1, "lambda": 0, "D": "-2"},
          "ni-balanced", "lc", False,
          note="balanced non-Kahler point; Gray condition fails"),
    _case("L03-sii-balanced-lc", "Sii", "sii", "diag", "lc", False),
    _case("L04-g1-diag-lc", "Si", {"A": 1}, "diag", "lc", False,
          note="Chern-flat balanced metric, still not LC Kahler-like"),
    _case("L05-niii-balanced-lc", "Niii", {"rho": 0, "sign": 1}, "diag", "lc", False),
    _case("L06-g8-lc", "Siv1", {}, "any", "lc", False),
    _case("L07-g4-diag-lc", "Siii1", "siii1", "diag", "lc", False),
)


def _metric_for(case: TheoremCase, rng) -> MetricParams:
    if case.metric == "ni-balanced":
        # r2 = 1, v = z = 0, s2 + D = i conj(u) lambda; here lambda = 0, D = -s2
        s2 = _rand_pos(rng, 6)
        return MetricParams(Rat(1), s2, _rand_pos(rng, 6),
                            GaussianRational(0), GaussianRational(0), GaussianRational(0))
    return sample_metric(rng, shape=case.metric)


def _structure_for(case: TheoremCase, rng) -> FamilySpec:
    if isinstance(case.structure, str):
        params = _STRUCT_DRAWS[case.structure](rng)
    else:
        params = case.structure
    return FamilySpec.make(case.family, **{k: gr(v) for k, v in params.items()})


def _specs_for(case: TheoremCase, rng):
    token = case.specs
    if token == "chern":
        return [ConnectionSpec.preset("chern")]
    if token == "bismut":
        return [ConnectionSpec.preset("bismut")]
    if token == "lc":
        return [ConnectionSpec.preset("lc")]
    eps = _gauduchon_eps(rng)
    if token == "gauduchon-all":
        chosen = eps
    elif token == "gauduchon-nonchern":
        chosen = [e for e in eps if e != 0]
    elif token == "gauduchon-mid":
        chosen = [e for e in eps if e != 0 and e != Rat(1, 2)]
    else:
        raise ValueError(f"unknown spec token {token!r}")
    return [ConnectionSpec.gauduchon(e) for e in chosen]


@dataclass
class CaseResult:
    case_id: str
    family: str
    spec: str
    expected: str
    observed: str
    witness: str
    passed: bool


@dataclass
class ConjectureResult:
    conj_id: str
    statement: str
    checked: int
    violations: tuple
    passed: bool


@dataclass
class Scoreboard:
    seed: int
    points_per_case: int
    cases: list
    conjectures: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases) and all(c.passed for c in self.conjectures)

    def to_json(self) -> str:
        doc = {
            "seed": self.seed,
            "points_per_case": self.points_per_case,
            "passed": self.passed,
            "cases": [vars(c) for c in self.cases],
            "conjectures": [
                {"conj_id": c.conj_id, "statement": c.statement, "checked": c.checked,
                 "violations": list(c.violations), "passed": c.passed}
                for c in self.conjectures
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["case_id", "family", "spec", "expected", "observed", "witness"])
        for c in self.cases:
            w.writerow([c.case_id, c.family, c.spec, c.expected, c.observed, c.witness])
        return buf.getvalue()


def _expected_str(case: TheoremCase) -> str:
    parts = [f"klike={str(case.expect_klike).lower()}"]
    if case.expect_flat is not None:
        parts.append(f"flat={str(case.expect_flat).lower()}")
    for key in sorted(case.expect_flags):
        parts.append(f"{key}={str(case.expect_flags[key]).lower()}")
    return ",".join(parts)


def _witness_str(report) -> str:
    if report.type_residues:
        kind, (idx, v) = "R", report.type_residues[0]
    elif report.bianchi_residues:
        kind, (idx, v) = "B", report.bianchi_residues[0]
    else:
        return ""
    return f"{kind}[{','.join(index_name(i) for i in idx)}]={v}"


def evaluate_case(case: TheoremCase, plan: SamplePlan):
    """Run one theorem case; returns (per-spec CaseResults, conjecture log rows)."""
    rng = plan.rng_for(case.case_id)
    specs = _specs_for(case, rng)
    expected = _expected_str(case)

    observations = {spec.label(): [] for spec in specs}
    log = []
    for _ in range(plan.points_per_case):
        if case.case_id == "L02-ni-balanced-lc":
            metric = _metric_for(case, rng)
            struct = FamilySpec.make("Ni", rho=1, **{"lambda": 0}, D=GaussianRational(-metric.s2))
        else:
            struct = _structure_for(case, rng)
            metric = _metric_for(case, rng)
        alg = instantiate(struct)
        h = build_metric(metric)
        plane = connection_plane(h, alg)
        flags = classify_metric(h, alg, plane.forms)
        for spec in specs:
            curv = curvature(christoffel(spec, h, alg, plane), h, alg)
            report = kahler_like_check(curv)
            flat = flatness_check(curv)
            gray = gray_check_lc(curv) if spec.is_lc else None
            observations[spec.label()].append((report, flat, flags, gray))
            log.append({
                "case_id": case.case_id,
                "family": case.family,
                "spec": spec,
                "klike": report.verdict,
                "flat": flat.flat,
                "gray": gray,
                "kahler": flags.kahler,
                "balanced": flags.balanced,
                "pluriclosed": flags.pluriclosed,
            })

    results = []
    for spec in specs:
        rows = observations[spec.label()]
        observed_bits = []
        witness = ""
        verdicts = {r.verdict for r, _, _, _ in rows}
        ok = verdicts == {case.expect_klike}
        observed_bits.append("klike=" + "/".join(sorted(str(v).lower() for v in verdicts)))
        if case.expect_klike is False:
            # soundness: a nonzero residue must witness every point
            for r, _, _, _ in rows:
                if r.n_type_nonzero + r.n_bianchi_nonzero == 0:
                    ok = False
            witness = _witness_str(rows[0][0])
        if case.expect_flat is not None:
            flats = {f.flat for _, f, _, _ in rows}
            observed_bits.append("flat=" + "/".join(sorted(str(v).lower() for v in flats)))
            if flats != {case.expect_flat}:
                ok = False
            if case.expect_flat is False and rows[0][1].witness:
                idx, v = rows[0][1].witness
                witness = f"R[{','.join(index_name(i) for i in idx)}]={v}"
        for key, want in sorted(case.expect_flags.items()):
            got = {getattr(fl, key) for _, _, fl, _ in rows}
            observed_bits.append(f"{key}=" + "/".join(sorted(str(v).lower() for v in got)))
            if got != {want}:
                ok = False
        # the Gray test must agree with the Kahler-like verdict for LC
        for r, _, _, gray in rows:
            if gray is not None and gray != r.verdict:
                ok = False
                observed_bits.append("gray-mismatch")
        results.append(CaseResult(case.case_id, case.family, spec.label(), expected,
                                  ",".join(observed_bits), witness, ok))
    return results, log


_CONJECTURES = (
    ("conj-a", "Bismut Kahler-like implies pluriclosed",
     lambda row: row["spec"].eps == Rat(1, 2) and row["spec"].is_gauduchon and row["klike"],
     lambda row: row["pluriclosed"]),
    ("conj-b", "Gauduchon Kahler-like off {0, 1/2} implies Kahler",
     lambda row: row["spec"].is_gauduchon and row["spec"].eps not in (Rat(0), Rat(1, 2))
     and row["klike"],
     lambda row: row["kahler"]),
    ("conj-c", "Chern or Levi-Civita Kahler-like implies balanced",
     lambda row: (row["spec"].is_lc or (row["spec"].is_gauduchon and row["spec"].eps == 0))
     and row["klike"],
     lambda row: row["balanced"]),
    ("conj-d", "Levi-Civita Kahler-like iff Kahler",
     lambda row: row["spec"].is_lc,
     lambda row: row["klike"] == row["kahler"]),
    # may be exercised only by the Kahler cases; vacuity would be a coverage bug
    ("conj-e", "Bismut-flat implies pluriclosed",
     lambda row: row["spec"].eps == Rat(1, 2) and row["spec"].is_gauduchon and row["flat"],
     lambda row: row["pluriclosed"]),
)


def theorem_suite(plan: SamplePlan | None = None, threads: int | None = None) -> Scoreboard:
    """Run every theorem case and the conjecture implications over the sweep."""
    plan = plan or SamplePlan()
    if threads is None:
        threads = _threads_from_env()

    if threads > 1:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=threads) as pool:
            outputs = list(pool.map(_evaluate_case_by_index,
                                    [(i, plan) for i in range(len(THEOREM_CASES))]))
    else:
        outputs = [evaluate_case(case, plan) for case in THEOREM_CASES]

    cases = []
    log = []
    for results, rows in outputs:
        cases.extend(results)
        log.extend(rows)
    cases.sort(key=lambda c: (c.case_id, c.spec))

    conjectures = []
    for conj_id, statement, applies, holds in _CONJECTURES:
        checked = 0
        violations = []
        for row in log:
            if applies(row):
                checked += 1
                if not holds(row):
                    violations.append(f"{row['case_id']}:{row['spec'].label()}")
        conjectures.append(ConjectureResult(conj_id, statement, checked,
                                            tuple(sorted(set(violations))), not violations))
    return Scoreboard(plan.seed, plan.points_per_case, cases, conjectures)


def _evaluate_case_by_index(args):
    index, plan = args
    return evaluate_case(THEOREM_CASES[index], plan)


def _threads_from_env() -> int:
    """CURVLAB_THREADS, clamped to the cores and to one worker per theorem case."""
    raw = os.environ.get("CURVLAB_THREADS", "1")
    try:
        return max(1, min(int(raw), os.cpu_count() or 1, len(THEOREM_CASES)))
    except ValueError:
        return 1


# -- structural identity sweep -------------------------------------------------

_SWEEP_STRUCTURES = (
    ("Np", {"rho": 0}), ("Np", {"rho": 1}),
    ("Ni", {"rho": 0, "lambda": 0, "D": "i"}),
    ("Ni", {"rho": 1, "lambda": "1/2", "D": "1/3+2/5*i"}),
    ("Nii", {"rho": 1, "B": "1/2-1/3*i", "c": "2/3"}),
    ("Nii", {"rho": 0, "B": "1/2", "c": 1}),
    ("Niii", {"rho": 0, "sign": 1}), ("Niii", {"rho": 1, "sign": -1}),
    ("Si", {"A": 1}), ("Si", {"A": "i"}), ("Si", {"A": "3/5+4/5*i"}),
    ("Sii", {"x": "1/2"}),
    ("Siii1", {"sign": 1}), ("Siii2", {}), ("Siii3", {}), ("Siii4", {"sign": -1}),
    ("Siv1", {}), ("Siv2", {"x": 1}), ("Siv3", {"A": 2}),
    ("Sv", {}), ("sl2c", {}),
)


def _identity_witness(prod):
    """The first entry where a 6x6 matrix differs from the Kronecker delta, labelled,
    with the difference, or None for the identity; only a witness builds a value."""
    for n, (i, j) in enumerate(all_indices(2)):
        re, im = prod.re[n] - (prod.den if i == j else 0), prod.im[n]
        if re or im:
            label = f"(g*g_inv - id)[{index_name(i)},{index_name(j)}]"
            return label, numerator_value(re, im, prod.den)
    return None


def _d_witness(domega, alg):
    """The first nonzero component of d(d omega) over sorted index tuples, labelled,
    or None when d(d omega) = 0; a zero component builds no value."""
    for idx in itertools.combinations(INDICES, domega.rank + 1):
        value = d_component(domega, alg, idx)
        if not value.is_zero():
            return f"d(d omega)[{','.join(index_name(i) for i in idx)}]", value
    return None


def structural_sweep(plan: SamplePlan | None = None, metrics_per_structure: int = 2,
                     random_gauduchon: int = 3):
    """Exact structural identities over the catalog.

    For every catalog structure and sampled metric, and for every preset
    connection plus random Gauduchon-line parameters: curvature skewness and
    reality, (Symm) for the torsion-free connection, metric compatibility,
    type preservation on the Gauduchon line, the torsion Bianchi defect,
    d o d = 0, and g g^{-1} = id.  Returns a list of IdentityResult.
    """
    plan = plan or SamplePlan()
    results = []

    for family_id, params in _SWEEP_STRUCTURES:
        rng = plan.rng_for(f"sweep:{family_id}:{sorted(params.items())!r}")
        f = FamilySpec.make(family_id, **params)
        alg = instantiate(f)
        tag = f"{family_id}{params}"

        rep = validate_lie_algebra(alg)
        results.append(IdentityResult(f"lie-algebra[{tag}]", rep.passed, 1,
                                      None if rep.passed else (tag, rep.failures()[0].name,
                                                               rep.failures()[0].residue)))

        specs = [ConnectionSpec.preset(name) for name in PRESETS]
        for _ in range(random_gauduchon):
            e = Rat(rng.randint(-12, 12), rng.randint(1, 8))
            specs.append(ConnectionSpec.gauduchon(e))

        for m_index in range(metrics_per_structure):
            metric = sample_metric(rng, shape="any")
            h = build_metric(metric)
            plane = connection_plane(h, alg)
            point = f"{tag} metric#{m_index}"

            for name, wit in (("g-ginv-identity", _identity_witness(contract(h.g, h.g_inv, 1, 0))),
                              ("d-squared", _d_witness(exterior_d(h.omega, alg), alg))):
                results.append(IdentityResult(f"{name}[{point}]", wit is None, 1,
                                              None if wit is None else (point, *wit)))

            for spec in specs:
                sp = f"{point} {spec.label()}"
                table = christoffel(spec, h, alg, plane)
                curv = curvature(table, h, alg)

                bad = curvature_symmetry_failures(curv, check_symm=spec.is_lc)
                results.append(IdentityResult(
                    f"curvature-symmetries[{sp}]", not bad, 1,
                    None if not bad else (sp, bad[0][0], curv.tensor[bad[0][1]])))

                ng = nabla_g_failures(table)
                results.append(IdentityResult(
                    f"nabla-g[{sp}]", not ng, 1,
                    None if not ng else (sp, str(ng[0]), table.lowered[ng[0]])))

                if spec.is_gauduchon:
                    nj = nabla_j_failures(table)
                    results.append(IdentityResult(
                        f"nabla-j[{sp}]", not nj, 1,
                        None if not nj else (sp, str(nj[0]), table.gamma[nj[0]])))

                _, defect = torsion_and_bianchi_defect(spec, h, alg)
                ok = defect.is_zero()
                wit = None if ok else next(defect.nonzero())
                results.append(IdentityResult(
                    f"bianchi-defect[{sp}]", ok, 1,
                    None if ok else (sp, str(wit[0]), wit[1])))
    return results
