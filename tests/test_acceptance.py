"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every equality below is exact rational equality; the only tolerances
are the stated floating-point bounds in the flow criterion.
"""

import random
import time

import numpy as np
import pytest

from curvlab.catalog import FamilySpec, instantiate
from curvlab.connection import ConnectionSpec, curvature_of
from curvlab.flow import (
    FlowState,
    _lc_field,
    _structure_array,
    exact_lc_ricci,
    float_lc_ricci,
    flow_state_from_hermitian,
    integrate_flow,
)
from curvlab.goldens import compare_components
from curvlab.metric import MetricParams, build_metric
from curvlab.scalars import GaussianRational, Rat
from curvlab.symmetry import kahler_like_check
from curvlab.verify import SamplePlan, sample_metric, structural_sweep, theorem_suite

SEED = 20260809


def _report(criterion, ok, detail=""):
    line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _ni_draws(rng, count_per_rho=3):
    draws = []
    for rho in (0, 1):
        for _ in range(count_per_rho):
            lam = Rat(rng.randint(0, 3), rng.randint(1, 3))
            d = GaussianRational(Rat(rng.randint(-3, 3), rng.randint(1, 3)),
                                 Rat(rng.randint(0, 3), rng.randint(1, 3)))
            draws.append(FamilySpec.make("Ni", rho=rho, **{"lambda": lam}, D=d))
    return draws


def test_criterion_1_family_ni_table():
    """All 12 R- and 13 B-components of the (Ni) closed-form table, exact."""
    rng = random.Random(SEED)
    eps_values = (Rat(0), Rat(1, 6), Rat(1, 4), Rat(1, 3), Rat(1, 2))
    start = time.monotonic()
    comparisons = 0
    for structure in _ni_draws(rng):
        for _ in range(5):
            metric = sample_metric(rng, shape="offu-r1")
            rows = compare_components("Ni", structure, metric, eps_values)
            comparisons += len(rows)
            bad = [r for r in rows if not r[-1]]
            assert not bad, f"mismatch (eps, component, expected, got, equal): {bad[:3]}"
    elapsed = time.monotonic() - start
    _report(1, elapsed < 60.0, f"{comparisons} exact comparisons in {elapsed:.1f}s")


def test_criterion_2_si_tables():
    """The four Chern B-components on (Si) and the full A=i table, exact."""
    rng = random.Random(SEED + 1)
    comparisons = 0
    for a in ("1", "i", "3/5+4/5*i", "-3/5+4/5*i"):
        structure = FamilySpec.make("Si", A=a)
        for _ in range(5):
            metric = sample_metric(rng, shape="u-only")
            rows = compare_components("Si-B0", structure, metric, (Rat(0),))
            comparisons += len(rows)
            assert all(ok for *_, ok in rows)

    structure = FamilySpec.make("Si", A="i")
    eps_values = (Rat(0), Rat(1, 6), Rat(1, 4), Rat(1, 3), Rat(1, 2))
    points = 0
    while points < 5:
        metric = sample_metric(rng, shape="vz-only")
        points += 1
        rows = compare_components("Si-g20", structure, metric, eps_values)
        comparisons += len(rows)
        assert all(ok for *_, ok in rows)
    _report(2, True, f"{comparisons} exact comparisons")


@pytest.fixture(scope="module")
def scoreboard():
    return theorem_suite(SamplePlan(seed=SEED, points_per_case=5))


def test_criterion_3_theorem_scoreboard(scoreboard):
    """Every classification bullet reproduced; negatives witnessed at every point."""
    failed = [c for c in scoreboard.cases if not c.passed]
    positives = sum(1 for c in scoreboard.cases if "klike=true" in c.expected)
    negatives = sum(1 for c in scoreboard.cases if "klike=false" in c.expected)
    ok = not failed and positives >= 17 and negatives >= 26
    _report(3, ok, f"{len(scoreboard.cases)} case rows "
                   f"({positives} positive, {negatives} negative), "
                   f"{len(failed)} failures")


def test_criterion_3_runtime():
    start = time.monotonic()
    board = theorem_suite(SamplePlan(seed=SEED + 7, points_per_case=5))
    elapsed = time.monotonic() - start
    _report("3-runtime", board.passed and elapsed < 300.0, f"{elapsed:.1f}s < 300s")


def test_criterion_4_conjectures(scoreboard):
    """(a) Bismut KL => pluriclosed; (b) off-{0,1/2} KL => Kahler;
    (c) Chern/LC KL => balanced; (d) LC KL <=> Kahler.  No violations."""
    details = []
    ok = True
    for conj in scoreboard.conjectures:
        details.append(f"{conj.conj_id}: {conj.checked} checked")
        if not conj.passed or conj.checked == 0:
            ok = False
    _report(4, ok, "; ".join(details))


def test_criterion_5_structural_identities():
    """Skewness, reality, Bianchi defect, (Symm), nabla J, d^2, g g^-1: exact."""
    results = structural_sweep(SamplePlan(seed=SEED + 2))
    bad = [r.describe() for r in results if not r.passed]
    _report(5, not bad, f"{len(results)} exact checks over the catalog sweep")


def test_criterion_6_parallelizable_chern_flat():
    """(Np) both rho values, (Siv1), and sl2c are Chern-flat for every metric."""
    rng = random.Random(SEED + 3)
    chern = ConnectionSpec.preset("chern")
    checked = 0
    for fid, params in (("Np", {"rho": 0}), ("Np", {"rho": 1}), ("Siv1", {}), ("sl2c", {})):
        alg = instantiate(FamilySpec.make(fid, **params))
        for _ in range(5):
            h = build_metric(sample_metric(rng, shape="any"))
            curv = curvature_of(chern, h, alg)
            assert curv.tensor.is_zero(), (fid, params)
            assert kahler_like_check(curv).verdict
            checked += 1
    _report(6, True, f"{checked} sampled metrics, R identically zero")


def test_criterion_7_flow():
    """Constant traces at Kahler-like-LC points, exact t=0 Ricci block, RK4 order."""
    rng = random.Random(SEED + 4)
    torus = instantiate(FamilySpec.make("Np", rho=0))
    g20 = instantiate(FamilySpec.make("Si", A="i"))

    # constant traces with deviation <= 1e-12 over horizon 1 at step 1/100
    max_dev = 0.0
    max_drift = 0.0
    for alg, metric in ((torus, sample_metric(rng, shape="any")),
                        (g20, sample_metric(rng, shape="diag"))):
        state = flow_state_from_hermitian(build_metric(metric), alg)
        trace = integrate_flow(state, horizon=1.0, step=0.01)
        assert trace.completed and len(trace.samples) == 101
        max_dev = max(max_dev, max(s.deviation for s in trace.samples))
        max_drift = max(max_drift, max(np.abs(s.g6 - trace.samples[0].g6).max()
                                       for s in trace.samples))
    assert max_dev <= 1e-12 and max_drift <= 1e-12

    # t = 0: the pure-type Ricci block vanishes exactly at every
    # Kahler-like-Levi-Civita catalog point (torus: any metric; g2^0: diagonal)
    for alg, metric in ((torus, sample_metric(rng, shape="any")),
                        (torus, sample_metric(rng, shape="any")),
                        (g20, sample_metric(rng, shape="diag")),
                        (g20, sample_metric(rng, shape="diag"))):
        h = build_metric(metric)
        assert kahler_like_check(curvature_of(ConnectionSpec.preset("lc"), h, alg)).verdict
        ric = exact_lc_ricci(flow_state_from_hermitian(h, alg).g6, alg)
        for i in range(3):
            for j in range(3):
                assert ric[i, j].is_zero()
                assert ric[i + 3, j + 3].is_zero()

    # RK4 order: round trip against the constant reference from a perturbed,
    # projected start; the defect must drop by >= 8 per step halving
    g_star = flow_state_from_hermitian(
        build_metric(MetricParams.make(r2=2, s2=1, t2="3/2")), g20).as_float_matrix()
    nprng = np.random.default_rng(SEED)
    pert = nprng.normal(size=(6, 6)) * 0.05
    pert = 0.5 * (pert + pert.T)
    bar_image = np.array([[np.conj(pert[(i + 3) % 6, (j + 3) % 6]) for j in range(6)]
                          for i in range(6)])
    pert = 0.5 * (pert + bar_image)
    g0 = g_star + pert
    FlowState(0.0, g0, g20).validate()
    lc = _lc_field(_structure_array(g20))

    def round_trip_defect(step):
        fwd = integrate_flow(FlowState(0.0, g0.copy(), g20), horizon=0.5, step=step,
                             rhs=lambda m: -float_lc_ricci(m, lc))
        back = integrate_flow(FlowState(0.0, fwd.samples[-1].g6.copy(), g20),
                              horizon=0.5, step=step,
                              rhs=lambda m: +float_lc_ricci(m, lc))
        return np.abs(back.samples[-1].g6 - g0).max()

    d1, d2 = round_trip_defect(0.05), round_trip_defect(0.025)
    ratio = d1 / d2
    assert d1 > 0 and ratio >= 8.0
    _report(7, True, f"deviation {max_dev:.1e} <= 1e-12, exact Ricci blocks, "
                     f"RK4 defect ratio {ratio:.1f} >= 8")
