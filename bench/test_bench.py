"""The benchmark's checks must flag a corrupted result, and its spans must nest correctly."""

import dataclasses
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest

import run
import tracing
import workloads
from curvlab import catalog, connection, flow, goldens, metric, verify
from curvlab.scalars import GaussianRational, Rat


@pytest.fixture(scope="module")
def small_board():
    plan = verify.SamplePlan(seed=0, points_per_case=1)
    cases = []
    for case in verify.THEOREM_CASES[:3]:
        cases += verify.evaluate_case(case, plan)[0]
    conj = verify.ConjectureResult("conj-x", "a statement", 1, (), True)
    return verify.Scoreboard(0, 1, cases, [conj])


def test_scoreboard_check_passes_and_flags_a_flipped_verdict(small_board):
    assert workloads.check_scoreboard(small_board)[1] == []
    case = small_board.cases[0]
    flipped = case.observed.replace("klike=true", "klike=x").replace("klike=false", "klike=true")
    flipped = flipped.replace("klike=x", "klike=false")
    assert flipped != case.observed
    # the observed verdict disagrees with the expectation even though 'passed' was kept
    bad = dataclasses.replace(small_board, cases=[dataclasses.replace(case, observed=flipped)]
                              + small_board.cases[1:])
    assert len(workloads.check_scoreboard(bad)[1]) == 1


def test_scoreboard_check_flags_an_unexercised_conjecture(small_board):
    idle = dataclasses.replace(small_board.conjectures[0], checked=0)
    bad = dataclasses.replace(small_board, conjectures=[idle])
    assert len(workloads.check_scoreboard(bad)[1]) == 1


def _defect_result(corrupt):
    spec = connection.ConnectionSpec.preset("bismut")
    h = metric.build_metric(metric.MetricParams.make(r2=1, s2=2, t2=3, u="1/5*i"))
    alg = catalog.instantiate(catalog.FamilySpec.make("Np", rho=1))
    _, defect = connection.torsion_and_bianchi_defect(spec, h, alg)
    if corrupt:
        defect[0, 1, 2, 3] = defect[0, 1, 2, 3] + GaussianRational(Rat(1, 7))
    return verify.verify_identity_zero("bianchi-defect[Np bismut]",
                                       lambda _: defect.nonzero(), ["point"])


def test_structural_check_flags_a_nonzero_defect():
    n = workloads.expected_sweep_checks()
    passing = [verify.IdentityResult(f"identity-{k}", True, 1) for k in range(n - 1)]
    assert workloads.check_structural(passing + [_defect_result(False)]) == (n + 1, [])
    attempted, failures = workloads.check_structural(passing + [_defect_result(True)])
    assert attempted == n + 1 and len(failures) == 1 and "bianchi-defect" in failures[0]


def test_structural_check_flags_a_missing_check():
    n = workloads.expected_sweep_checks()
    results = [verify.IdentityResult(f"identity-{k}", True, 1) for k in range(n - 1)]
    assert len(workloads.check_structural(results)[1]) == 1


def test_defect_check_flags_a_nonzero_defect_and_a_failed_identity():
    wl = workloads.DefectQueries()
    out = wl.call(next(wl.inputs(0)))
    assert workloads.check_defect(out) == (7, [])

    defect = out["defect"].copy()
    defect[0, 1, 2, 3] = defect[0, 1, 2, 3] + GaussianRational(Rat(1, 7))
    failures = workloads.check_defect({**out, "defect": defect})[1]
    assert len(failures) == 1 and failures[0].startswith("Bianchi defect")
    failures = workloads.check_defect({**out, "nabla_g": [(0, 1, 2)]})[1]
    assert len(failures) == 1 and failures[0].startswith("nabla_g")
    failures = workloads.check_defect({**out, "d_squared_zero": False})[1]
    assert failures == ["d_squared_zero is false"]


def test_golden_check_flags_a_perturbed_component():
    wl = workloads.GoldenQueries()
    query = next(wl.inputs(0))
    curv = wl.call(query)
    expected = goldens.appendix_oracle(query[0])
    attempted, failures = workloads.check_golden(expected, curv)
    assert attempted == len(expected) and failures == []

    label = next(k for k in sorted(expected) if k.startswith("R"))
    i, j, k, l = (int(ch) - 1 for ch in label if ch.isdigit())
    tensor = curv.tensor.copy()
    tensor[i, j, k, l + 3] = tensor[i, j, k, l + 3] + GaussianRational(Rat(1, 1000))
    bad = connection.CurvatureTensor(curv.spec, tensor)
    failures = workloads.check_golden(expected, bad)[1]
    assert failures and failures[0].startswith(label)


def test_flow_check_flags_a_perturbed_component():
    wl = workloads.Flow()
    state, trace = wl.call(next(wl.inputs(0)))
    exact = flow.ricci_rhs(state)
    approx = flow.ricci_rhs(flow.FlowState(0.0, state.as_float_matrix(), state.structure))
    assert workloads.check_flow_ricci(exact, approx) == (1, [])
    exact[0][3] = exact[0][3] + GaussianRational(Rat(1, 1000))
    assert len(workloads.check_flow_ricci(exact, approx)[1]) == 1


def test_second_pass_mismatch_counts_as_a_failure():
    class Echo:
        @staticmethod
        def fingerprint(out):
            return out

    result = run.Run()
    run.compare(Echo, 0, "same", "same", result)
    run.compare(Echo, 1, "before", "after", result)
    assert result.attempted == 2 and len(result.failures) == 1


def test_call_cost_in_ticks_uses_the_ticks_on_either_side():
    result = run.Run()
    result.times, result.ref_ticks = [2.0, 4.0], [1.0, 1.0, 3.0]
    result.inner_ticks = [[], [2.0]]
    assert result.ref_call_times() == [2.0, 2.0]


def test_ticks_inside_a_call_are_taken_out_of_its_time():
    class Sleeper:
        @staticmethod
        def call(seconds):
            time.sleep(seconds)

        size = staticmethod(lambda out: (1, 1, 0))
        check = staticmethod(lambda inp, out, tracer: (1, []))

    result = run.Run(ticked=True)
    run.one_call(Sleeper, 0.6, tracing.Tracer(), result, 0)
    ticks = result.inner_ticks[0]
    assert len(ticks) == 2 and all(t > 0 for t in ticks)
    assert result.times[0] == pytest.approx(0.6 - sum(ticks), abs=0.05)


def test_tracer_wraps_every_binding_and_computes_self_time():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # verify imported christoffel by name; connection calls it internally
        assert verify.christoffel is connection.christoffel
        assert verify.christoffel.__wrapped__ is not None
        spec = connection.ConnectionSpec.preset("bismut")
        h = metric.build_metric(metric.MetricParams.make())
        alg = catalog.instantiate(catalog.FamilySpec.make("Np", rho=1))
        tracer.active = True
        verify.curvature(verify.christoffel(spec, h, alg), h, alg)
        connection.torsion_and_bianchi_defect(spec, h, alg)
        tracer.active = False
    finally:
        tracer.uninstall()
    assert not hasattr(verify.christoffel, "__wrapped__")

    names = [s[0] for s in tracer.spans]
    assert names.count("connection.christoffel") == 2
    defect_id = names.index("connection.torsion_and_bianchi_defect")
    assert [s[0] for s in tracer.spans if s[1] == defect_id] == ["connection.christoffel"]
    totals = tracer.layer_totals()
    defect = tracer.spans[defect_id]
    child = next(s for s in tracer.spans if s[1] == defect_id)
    assert totals["connection.torsion_and_bianchi_defect"] == (
        1, pytest.approx((defect[4] - defect[3]) - (child[4] - child[3])))
    assert tracer.max_num_bits > 0 and tracer.max_den_bits > 0
