"""Sampling-based exact verification: structural sweep, theorem scoreboard, appendix oracle.

Every row is a set of exact zero tests at seeded random rational points.  A
structural sweep row checks one identity at one (structure, metric,
connection) point; a scoreboard case row checks one connection of a case at
each of its ``points_per_case`` sampled points.  A PASS is sampled evidence,
not a proof: the residues are fixed rational functions of bounded degree, so
exact vanishing at random points makes identical vanishing very likely.  A
FAIL is a proof: it carries an exact nonzero counterexample.

The theorem scoreboard reproduces the classification results case by case:
positive cases must come out Kahler-like at every sampled in-locus point,
negative cases must fail with a nonzero witness at every sampled point.
Conjecture-level implications are re-checked on every (point, connection)
the scoreboard evaluates.  An appendix row compares one closed-form golden
component with the pipeline at one (point, eps).
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import os
import random
from dataclasses import dataclass, field

from .algebra import _d_sums, _d_tables, exterior_d, validate_lie_algebra
from .catalog import FamilySpec, family_info, instantiate
# christoffel and curvature are not called here: bench/test_bench.py reads them off
# this module to check that bench/tracing.py wraps every binding of a traced function
from .connection import (
    _HALF,
    _KINDS,
    ConnectionPlane,
    ConnectionSpec,
    PRESETS,
    _curvature_hits,
    _defect_stack,
    _nabla_g_hits,
    _nabla_j_hits,
    _stacked_pass,
    christoffel,
    curvature,
)
from .goldens import compare_components
from .metric import MetricClassification, MetricParams, build_metric, classify_metric
from .scalars import ZERO, GaussianRational, Rat, gr
from .symmetry import FlatnessResult, KahlerLikeReport, stack_verdicts
from .tensors import DIM, _first_hits, _stack, all_indices, contract, index_name

__all__ = [
    "SamplePlan",
    "SamplingError",
    "IdentityResult",
    "verify_identity_zero",
    "sample_metric",
    "THEOREM_CASES",
    "theorem_suite",
    "structural_sweep",
    "appendix_suite",
    "Scoreboard",
]

TABLE_EPS = (Rat(0), Rat(1, 6), Rat(1, 4), Rat(1, 3), Rat(1, 2))  # the golden tables' eps
DEFAULT_EPS_SET = TABLE_EPS + (Rat(2, 3),)
RANDOM_EPS_COUNT = 1  # seeded random eps off {0, 1/2} added to DEFAULT_EPS_SET per case
EPS_HEIGHT = 10  # the random eps are a/b with |a| <= 2 EPS_HEIGHT, 1 <= b <= EPS_HEIGHT
METRIC_ATTEMPTS = 200  # draws sample_metric makes before it raises SamplingError
METRIC_HEIGHT = 10  # r2, s2, t2 are a/b with 1 <= a <= METRIC_HEIGHT, 1 <= b <= METRIC_HEIGHT // 2


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


# shape -> (r2 fixed at 1, which of u, v, z are drawn, must the drawn ones be not all zero)
_SHAPES = {
    "any": (False, "uvz", False),
    "diag": (False, "", False),
    "diag-r1": (True, "", False),
    "offu-r1": (True, "u", True),
    "u-only": (False, "u", True),
    "vz-only": (False, "vz", True),
}


def sample_metric(rng, shape="any") -> MetricParams:
    """Draw metric parameters of a _SHAPES shape until the positivity holds.

    r2, s2 and t2 are always drawn, then the shape's parts in u, v, z order;
    the parts not drawn are 0.  After METRIC_ATTEMPTS draws it raises SamplingError.
    """
    try:
        unit_r2, drawn, nonzero = _SHAPES[shape]
    except KeyError:
        raise ValueError(f"unknown metric shape {shape!r}") from None
    for _ in range(METRIC_ATTEMPTS):
        r2, s2, t2 = (_rand_pos(rng, METRIC_HEIGHT) for _ in range(3))
        parts = {name: _rand_small_gauss(rng) for name in drawn}
        if nonzero and all(x.is_zero() for x in parts.values()):
            continue
        p = MetricParams(Rat(1) if unit_r2 else r2, s2, t2,
                         *(parts.get(name, ZERO) for name in "uvz"))
        if not p.constraint_failures():
            return p
    raise SamplingError(f"no valid metric of shape {shape!r} in {METRIC_ATTEMPTS} attempts")


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


def _draw_ni_d(rng) -> GaussianRational:
    return GaussianRational(Rat(rng.randint(-3, 3), rng.randint(1, 3)),
                            Rat(rng.randint(0, 3), rng.randint(1, 3)))


def _draw_ni_rho1(rng):
    lam = Rat(rng.randint(0, 3), rng.randint(1, 3))
    return {"rho": gr(1), "lambda": gr(lam), "D": _draw_ni_d(rng)}


def _draw_ni_lam1(rng):
    # rho = 0, lambda = 1, Re D != 1/2 so the structure is never pluriclosed
    while True:
        d = _draw_ni_d(rng)
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


def _draw_si_any(rng):
    return {"A": gr(rng.choice(("1", "i") + _PYTH_UNIT))}


def _draw_si_nonkahler(rng):
    return {"A": gr(rng.choice(("1",) + _PYTH_UNIT))}


def _draw_sii(rng):
    return {"x": gr(Rat(rng.randint(1, 8), rng.randint(1, 4)))}


def _draw_siv3(rng):
    return {"A": gr(rng.choice(_NONUNIT_A))}


_STRUCT_DRAWS = {
    "ni-rho1": _draw_ni_rho1,
    "ni-lam1": _draw_ni_lam1,
    "nii": _draw_nii,
    "si-any": _draw_si_any,
    "si-nonkahler": _draw_si_nonkahler,
    "sii": _draw_sii,
    "siv3": _draw_siv3,
}
_CHOICES = "choices"  # draw each of the family's declared finite choices (catalog)


@dataclass(frozen=True)
class TheoremCase:
    """One scoreboard row family: expected verdict over sampled configurations."""

    case_id: str
    family: str
    structure: object  # params dict, a draw key in _STRUCT_DRAWS, or _CHOICES
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
    _case("P11-g4-bismut", "Siii1", _CHOICES, "diag", "bismut", True, flat=False,
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
    _case("N09-niii", "Niii", _CHOICES, "any", "gauduchon-all", False),
    _case("N10-si-offdiag-chern", "Si", "si-any", "u-only", "chern", False),
    _case("N11-si-vz-chern", "Si", "si-any", "vz-only", "chern", False),
    _case("N12-g20-vz-nonchern", "Si", {"A": "i"}, "vz-only", "gauduchon-nonchern", False),
    _case("N13-g2a-nonchern", "Si", "si-nonkahler", "any", "gauduchon-nonchern", False),
    _case("N14-sii", "Sii", "sii", "any", "gauduchon-all", False),
    _case("N15-g5", "Siii2", {}, "any", "gauduchon-all", False),
    _case("N16-g6", "Siii3", {}, "any", "gauduchon-all", False),
    _case("N17-g7", "Siii4", {"sign": 1}, "any", "gauduchon-all", False),
    _case("N18-g7-neg", "Siii4", {"sign": -1}, "any", "gauduchon-all", False),
    _case("N19-g4-chern", "Siii1", _CHOICES, "any", "chern", False),
    _case("N20-g4-wrong-eps", "Siii1", _CHOICES, "diag", "gauduchon-mid", False),
    _case("N21-g4-off-locus", "Siii1", _CHOICES, "u-only", "bismut", False),
    _case("N22-siv1-nonchern", "Siv1", {}, "any", "gauduchon-nonchern", False),
    _case("N23-siv2", "Siv2", _CHOICES, "any", "gauduchon-all", False),
    _case("N24-siv3-nonchern", "Siv3", "siv3", "any", "gauduchon-nonchern", False),
    _case("N25-siv3-offdiag-chern", "Siv3", "siv3", "u-only", "chern", False),
    _case("N26-sv", "Sv", {}, "any", "gauduchon-all", False),
    # Levi-Civita is Kahler-like only at Kahler points
    _case("L01-h5-lc", "Np", {"rho": 1}, "any", "lc", False),
    _case("L02-ni-balanced-lc", "Ni", {"rho": 1, "lambda": 0},  # D is drawn with the metric
          "ni-balanced", "lc", False,
          note="balanced non-Kahler point; Gray condition fails"),
    _case("L03-sii-balanced-lc", "Sii", "sii", "diag", "lc", False),
    _case("L04-g1-diag-lc", "Si", {"A": 1}, "diag", "lc", False,
          note="Chern-flat balanced metric, still not LC Kahler-like"),
    _case("L05-niii-balanced-lc", "Niii", {"rho": 0, "sign": 1}, "diag", "lc", False),
    _case("L06-g8-lc", "Siv1", {}, "any", "lc", False),
    _case("L07-g4-diag-lc", "Siii1", _CHOICES, "diag", "lc", False),
)


def _point_for(case: TheoremCase, rng) -> tuple[FamilySpec, MetricParams]:
    """One sampled (structure, metric) of the case."""
    if case.metric == "ni-balanced":
        # r2 = 1, u = v = z = 0, s2 + D = i conj(u) lambda; here lambda = 0, D = -s2
        s2, t2 = _rand_pos(rng, 6), _rand_pos(rng, 6)
        params = {**case.structure, "D": -s2}
        metric = MetricParams(Rat(1), s2, t2, *[GaussianRational(0)] * 3)
    else:
        params = case.structure
        if params == _CHOICES:
            params = {name: rng.choice(values)
                      for name, values, _ in family_info(case.family).choices}
        elif isinstance(params, str):
            params = _STRUCT_DRAWS[params](rng)
        metric = sample_metric(rng, shape=case.metric)
    return FamilySpec.make(case.family, **params), metric


def _specs_for(case: TheoremCase, rng):
    token = case.specs
    if token in PRESETS:
        return [ConnectionSpec.preset(token)]
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


def _entry_str(kind: str, idx, value) -> str:
    return f"{kind}[{','.join(index_name(i) for i in idx)}]={value}"


def _witness_str(report: KahlerLikeReport) -> str:
    if report.type_residues:
        return _entry_str("R", *report.type_residues[0])
    if report.bianchi_residues:
        return _entry_str("B", *report.bianchi_residues[0])
    return ""


def _joined(values) -> str:
    return "/".join(sorted(str(v).lower() for v in values))


@dataclass(frozen=True)
class Observation:
    """One evaluated (point, connection) of a theorem case; gray is set for Levi-Civita,
    and preserves_j, whether nabla J = 0 (no symbol of mixed type in its last two
    slots), for Gauduchon connections.  The report lists at most one witness of each
    kind (witness_cap = 1), the one a row prints; its counts and verdict cover every
    entry."""

    case_id: str
    spec: ConnectionSpec
    report: KahlerLikeReport
    flat: FlatnessResult
    flags: MetricClassification
    gray: bool | None
    preserves_j: bool | None


def evaluate_case(case: TheoremCase, plan: SamplePlan):
    """Run one theorem case; returns (per-spec CaseResults, one Observation per
    (point, connection), point-major)."""
    rng = plan.rng_for(case.case_id)
    specs = _specs_for(case, rng)

    observations = []
    for _ in range(plan.points_per_case):
        struct, metric = _point_for(case, rng)
        alg = instantiate(struct)
        h = build_metric(metric)
        plane = ConnectionPlane(h, alg)
        flags = classify_metric(h, alg, plane.forms)
        _, gamma, curv = _stacked_pass(specs, plane)
        verdicts = stack_verdicts(specs, *curv, witness_cap=1)
        j_hits = _nabla_j_hits(gamma[0]).any(1).tolist()
        for spec, (report, flat, gray), hit in zip(specs, verdicts, j_hits):
            preserves_j = not hit if spec.is_gauduchon else None
            observations.append(Observation(case.case_id, spec, report, flat, flags, gray,
                                            preserves_j))
    results = [_case_result(case, spec, observations[k::len(specs)])
               for k, spec in enumerate(specs)]
    return results, observations


def _case_result(case: TheoremCase, spec: ConnectionSpec, obs: list) -> CaseResult:
    """The scoreboard row of one connection of the case, from its observations."""
    verdicts = {o.report.verdict for o in obs}
    ok = verdicts == {case.expect_klike}
    observed = ["klike=" + _joined(verdicts)]
    witness = ""
    if case.expect_klike is False:
        # soundness: a nonzero residue must witness every point
        ok = ok and all(o.report.n_type_nonzero + o.report.n_bianchi_nonzero for o in obs)
        witness = _witness_str(obs[0].report)
    if case.expect_flat is not None:
        flats = {o.flat.flat for o in obs}
        observed.append("flat=" + _joined(flats))
        ok = ok and flats == {case.expect_flat}
        if case.expect_flat is False and obs[0].flat.witness:
            witness = _entry_str("R", *obs[0].flat.witness)
    for key, want in sorted(case.expect_flags.items()):
        got = {getattr(o.flags, key) for o in obs}
        observed.append(f"{key}=" + _joined(got))
        ok = ok and got == {want}
    # the Gray test must agree with the Kahler-like verdict for LC, and a Gauduchon
    # connection must preserve J
    for o in obs:
        if o.gray is not None and o.gray != o.report.verdict:
            ok = False
            observed.append("gray-mismatch")
        if o.preserves_j is False:
            ok = False
            observed.append("nabla-j-fail")
    return CaseResult(case.case_id, case.family, spec.label(), _expected_str(case),
                      ",".join(observed), witness, ok)


def _is_bismut(spec: ConnectionSpec) -> bool:
    return spec.is_gauduchon and spec.eps == _HALF


def _klike(o: Observation) -> bool:
    return o.report.verdict


# (id, statement, covers: the specs it speaks of, applies: to which observations of
# such a spec, holds); theorem_suite asks covers once per spec of a case
_CONJECTURES = (
    ("conj-a", "Bismut Kahler-like implies pluriclosed",
     _is_bismut, _klike, lambda o: o.flags.pluriclosed),
    ("conj-b", "Gauduchon Kahler-like off {0, 1/2} implies Kahler",
     lambda s: s.is_gauduchon and s.eps != 0 and s.eps != _HALF, _klike,
     lambda o: o.flags.kahler),
    ("conj-c", "Chern or Levi-Civita Kahler-like implies balanced",
     lambda s: s.is_lc or (s.is_gauduchon and s.eps == 0), _klike,
     lambda o: o.flags.balanced),
    ("conj-d", "Levi-Civita Kahler-like iff Kahler",
     lambda s: s.is_lc, lambda o: True,
     lambda o: o.report.verdict == o.flags.kahler),
    # may be exercised only by the Kahler cases; vacuity would be a coverage bug
    ("conj-e", "Bismut-flat implies pluriclosed",
     _is_bismut, lambda o: o.flat.flat, lambda o: o.flags.pluriclosed),
)


def theorem_suite(plan: SamplePlan | None = None, threads: int | None = None) -> Scoreboard:
    """Run every theorem case, then check each conjecture on every observation."""
    plan = plan or SamplePlan()
    # the pool starts every worker at once: at most one per core and per case
    workers = min(_threads_from_env() if threads is None else threads,
                  os.cpu_count() or 1, len(THEOREM_CASES))

    if workers > 1:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            outputs = list(pool.map(evaluate_case, THEOREM_CASES, itertools.repeat(plan)))
    else:
        outputs = [evaluate_case(case, plan) for case in THEOREM_CASES]

    cases = sorted((c for results, _ in outputs for c in results),
                   key=lambda c: (c.case_id, c.spec))
    # a case's observations are point-major over its specs: spec k's are obs[k::n]
    by_spec = [obs[k::len(results)] for results, obs in outputs for k in range(len(results))]

    conjectures = []
    for conj_id, statement, covers, applies, holds in _CONJECTURES:
        checked = [o for obs in by_spec if covers(obs[0].spec) for o in obs if applies(o)]
        violations = sorted({f"{o.case_id}:{o.spec.label()}" for o in checked if not holds(o)})
        conjectures.append(ConjectureResult(conj_id, statement, len(checked),
                                            tuple(violations), not violations))
    return Scoreboard(plan.seed, plan.points_per_case, cases, conjectures)


def _threads_from_env() -> int:
    """CURVLAB_THREADS as an integer, 1 when unset or malformed; theorem_suite clamps it."""
    try:
        return int(os.environ.get("CURVLAB_THREADS", "1"))
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


def _row(name: str, where: str, witness) -> IdentityResult:
    """One sweep row at one point: PASS without a witness, else FAIL carrying
    (where, str(label), value) from witness = (label, value)."""
    return IdentityResult(f"{name}[{where}]", not witness, 1,
                          (where, str(witness[0]), witness[1]) if witness else None)


_ID_LABELS = [f"(g*g_inv - id)[{index_name(i)},{index_name(j)}]" for i, j in all_indices(2)]


def _identity_witness(prod):
    """The first entry where a 6x6 matrix differs from the Kronecker delta, labelled,
    with the difference, or None for the identity: a _first_hits hit of the numerators
    less delta den, taken on Python ints (den may lie beyond int64)."""
    z = _stack((prod,))[0].astype(object)
    z[0, 0, ::DIM + 1] -= prod.den
    return _first_hits((z != 0).any(0), z, [prod.den], _ID_LABELS)[0]


def _d_witness(domega, alg):
    """The first nonzero component of d(d omega) over sorted index tuples, labelled,
    or None when d(d omega) = 0: the kernel's sums at those tuples, where only a
    witness builds a value."""
    z, den = _d_sums(domega, alg.c)
    hit = _first_hits(z.any(0)[None], z[:, None], [den], _d_tables(domega.rank + 1)[0])[0]
    return hit and (f"d(d omega)[{','.join(map(index_name, hit[0]))}]", hit[1])


def structural_sweep(plan: SamplePlan | None = None, metrics_per_structure: int = 2,
                     random_gauduchon: int = 3):
    """Exact structural identities over the catalog.

    For every catalog structure and sampled metric, and for every preset
    connection plus random Gauduchon-line parameters: curvature skewness and
    reality, (Symm) for the torsion-free connection, metric compatibility,
    type preservation on the Gauduchon line, the torsion Bianchi defect,
    d o d = 0, and g g^{-1} = id.  Returns a list of IdentityResult.

    A point's connections run as one stacked pass on its plane, whose arrays the checks,
    the Bianchi defect among them, read as masks.
    """
    plan = plan or SamplePlan()
    results = []

    for family_id, params in _SWEEP_STRUCTURES:
        rng = plan.rng_for(f"sweep:{family_id}:{sorted(params.items())!r}")
        f = FamilySpec.make(family_id, **params)
        alg = instantiate(f)
        tag = f"{family_id}{params}"

        bad = validate_lie_algebra(alg).failures()
        results.append(_row("lie-algebra", tag, bad and (bad[0].name, bad[0].residue)))

        specs = [ConnectionSpec.preset(name) for name in PRESETS]
        for _ in range(random_gauduchon):
            e = Rat(rng.randint(-12, 12), rng.randint(1, 8))
            specs.append(ConnectionSpec.gauduchon(e))

        for m_index in range(metrics_per_structure):
            metric = sample_metric(rng, shape="any")
            h = build_metric(metric)
            point = f"{tag} metric#{m_index}"

            results.append(_row("g-ginv-identity", point,
                                _identity_witness(contract(h.g, h.g_inv, 1, 0))))
            results.append(_row("d-squared", point, _d_witness(exterior_d(h.omega, alg), alg)))

            low, gamma, curv = _stacked_pass(specs, ConnectionPlane(h, alg))
            _, defect = _defect_stack(gamma, alg.c)
            checks = [(name, _first_hits(hits, *stack, labels)) for name, hits, stack, labels in (
                ("curvature-symmetries", _curvature_hits(curv[0], [s.is_lc for s in specs]), curv,
                 _KINDS * len(all_indices(4))),
                ("nabla-g", _nabla_g_hits(low[0]), low, all_indices(3)),
                ("nabla-j", _nabla_j_hits(gamma[0]), gamma, all_indices(3)),
                ("bianchi-defect", (defect[0] != 0).any(0), defect, all_indices(4)))]
            for k, spec in enumerate(specs):
                sp = f"{point} {spec.label()}"
                for name, witnesses in checks:
                    if name != "nabla-j" or spec.is_gauduchon:
                        results.append(_row(name, sp, witnesses[k]))
    return results


# -- appendix oracle -------------------------------------------------------------

def appendix_suite(plan: SamplePlan | None = None, draws: int = 3):
    """Rows (table, eps, label, expected, got, equal) of the golden tables against the
    pipeline, one per (point, eps, component): ``points_per_case`` metrics for each of
    ``draws`` Ni structures, the first ``draws`` (at most 4) Si-B0 values of A, and
    Si(A = i) for Si-g20; Si-B0 at eps = 0, the others at every TABLE_EPS."""
    plan = plan or SamplePlan()
    rng = random.Random(plan.seed)
    rows = []

    def compare(key, note, structure, shape, eps_values):
        for _ in range(plan.points_per_case):
            metric = sample_metric(rng, shape=shape)
            rows.extend((note, *r) for r in compare_components(key, structure, metric, eps_values))

    for _ in range(draws):
        rho, lam = rng.choice((0, 1)), Rat(rng.randint(0, 3), rng.randint(1, 3))
        d = _draw_ni_d(rng)
        compare("Ni", f"Ni[rho={rho},lam={lam},D={d}]",
                FamilySpec.make("Ni", rho=rho, **{"lambda": lam}, D=d), "offu-r1", TABLE_EPS)
    for a in ("1", "i", "3/5+4/5*i", "-3/5+4/5*i")[:draws]:
        compare("Si-B0", f"Si-B0[A={a}]", FamilySpec.make("Si", A=a), "u-only", (Rat(0),))
    compare("Si-g20", "Si-g20", FamilySpec.make("Si", A="i"), "vz-only", TABLE_EPS)
    return rows
