import collections
import concurrent.futures
import hashlib
import itertools
import os

import pytest

from curvlab import algebra, connection, goldens, metric, verify
from curvlab.scalars import GaussianRational, Rat, gr
from curvlab.tensors import MultiTensor, all_indices, flat_offset, index_name, numerator_value
from curvlab.verify import (
    THEOREM_CASES,
    SamplePlan,
    SamplingError,
    evaluate_case,
    sample_metric,
    structural_sweep,
    theorem_suite,
    verify_identity_zero,
)

from wedge_forms import d_component


def test_verify_identity_zero_pass():
    res = verify_identity_zero("always-zero",
                               lambda p: [("x", GaussianRational(0))],
                               range(5))
    assert res.passed and res.points_checked == 5
    assert "PASS" in res.describe()


def test_verify_identity_zero_fail_carries_counterexample():
    def residues(p):
        yield ("x", GaussianRational(0))
        if p == 3:
            yield ("planted", gr("1/7"))

    res = verify_identity_zero("planted-failure", residues, range(10))
    assert not res.passed
    assert res.points_checked == 4  # stops at the counterexample
    where, label, value = res.counterexample
    assert label == "planted" and value == gr("1/7")
    assert "FAIL" in res.describe()


def test_sample_metric_shapes(rng):
    for shape, check in [
        ("any", lambda p: True),
        ("diag", lambda p: p.u.is_zero() and p.v.is_zero() and p.z.is_zero()),
        ("diag-r1", lambda p: p.r2 == 1 and p.u.is_zero()),
        ("offu-r1", lambda p: p.r2 == 1 and not p.u.is_zero() and p.v.is_zero()),
        ("u-only", lambda p: not p.u.is_zero() and p.v.is_zero() and p.z.is_zero()),
        ("vz-only", lambda p: p.u.is_zero() and not (p.v.is_zero() and p.z.is_zero())),
    ]:
        for _ in range(5):
            p = sample_metric(rng, shape=shape)
            assert not p.constraint_failures()
            assert check(p), shape
    with pytest.raises(ValueError):
        sample_metric(rng, shape="bogus")


def test_sampling_error_reported(rng, monkeypatch):
    monkeypatch.setattr(verify, "METRIC_ATTEMPTS", 0)
    with pytest.raises(SamplingError):
        sample_metric(rng, shape="any")


def test_case_table_covers_catalog():
    ids = [c.case_id for c in THEOREM_CASES]
    assert len(ids) == len(set(ids))
    families = {c.family for c in THEOREM_CASES}
    assert families >= {"Np", "Ni", "Nii", "Niii", "Si", "Sii", "Siii1", "Siii2",
                        "Siii3", "Siii4", "Siv1", "Siv2", "Siv3", "Sv", "sl2c"}
    # every positive bullet and every negative family case present
    assert sum(1 for c in THEOREM_CASES if c.expect_klike) >= 17
    assert sum(1 for c in THEOREM_CASES if not c.expect_klike) >= 26


def test_single_case_evaluation():
    plan = SamplePlan(seed=5, points_per_case=2)
    case = next(c for c in THEOREM_CASES if c.case_id == "P09-h2-bismut")
    results, observations = evaluate_case(case, plan)
    assert all(r.passed for r in results)
    assert all(o.report.verdict for o in observations)
    assert all(o.flags.pluriclosed for o in observations)


def test_scoreboard_determinism():
    a = theorem_suite(SamplePlan(seed=3, points_per_case=1))
    b = theorem_suite(SamplePlan(seed=3, points_per_case=1))
    assert a.to_json() == b.to_json()
    assert a.to_csv() == b.to_csv()
    c = theorem_suite(SamplePlan(seed=4, points_per_case=1))
    assert c.to_json() != a.to_json()  # witnesses move with the seed


def test_scoreboard_bytes_are_pinned():
    # the byte-identical scoreboard for a fixed seed, on either rational backend
    board = theorem_suite(SamplePlan(seed=0, points_per_case=1), threads=1)
    digest = hashlib.sha256(board.to_json().encode()).hexdigest()
    assert digest == "b7cb2e61f27ac48c0e9e1b980d371899a02c7eb58a388380c9146c6b5b1ed45a"


def test_multi_point_scoreboard_bytes_are_pinned():
    # at two points per case each row reads its spec's observations[k::len(specs)]
    # out of every point's stacked verdicts
    board = theorem_suite(SamplePlan(seed=3, points_per_case=2), threads=1)
    digest = hashlib.sha256(board.to_json().encode()).hexdigest()
    assert digest == "df4430055bd8de13b0ea793c9a52fcc7bf6f33e0b659d451a83a022c350fd2d7"


def test_the_scoreboard_writes_no_symbol_or_curvature_lists(monkeypatch):
    """evaluate_case reads its verdicts off the stacked pass's arrays: it builds no
    ChristoffelTable and no curvature MultiTensor, so the kernel's one writer of
    those lists is never called, while the one-spec list path still calls it."""
    calls = []
    write = connection._tensors

    def spy(*args):
        calls.append(args[0])
        return write(*args)

    monkeypatch.setattr(connection, "_tensors", spy)
    plan = SamplePlan(seed=0, points_per_case=2)
    for case in THEOREM_CASES:
        evaluate_case(case, plan)
    assert calls == []
    struct, params = verify._point_for(THEOREM_CASES[0], plan.rng_for("list path"))
    alg, h = verify.instantiate(struct), metric.build_metric(params)
    connection.curvature(connection.christoffel(connection.ConnectionSpec.preset("chern"), h, alg),
                         h, alg)
    assert sorted(calls) == [3, 3, 4]


def test_the_sweep_writes_no_lists_and_runs_two_operators_per_point(monkeypatch):
    """structural_sweep tests its identities as masks on the stacked pass's arrays and
    rebuilds the Bianchi defect's symbols as one more stack: no symbol, curvature or
    defect list is written, and each point makes two curvature operator calls, the
    pass's on the lowered symbols and the defect's on the raised ones, each over
    all of the point's connections."""
    calls, operators = [], []
    write, operator = connection._tensors, connection._operator

    def spy(*args):
        calls.append(args[0])
        return write(*args)

    def counted(over, x):
        operators.append(len(over[2]))
        return operator(over, x)

    monkeypatch.setattr(connection, "_tensors", spy)
    monkeypatch.setattr(connection, "_operator", counted)
    rows = structural_sweep(SamplePlan(seed=0), 1, 1)
    assert calls == []
    points, specs = len(verify._SWEEP_STRUCTURES), len(connection.PRESETS) + 1
    assert operators == [specs] * (2 * points)
    assert rows and all(r.passed for r in rows)


# R[1,2,1b,2b], a type-condition entry, and R[1,1b,2,1b], one side of the B pair
# of B[1,1b,2,1b] (the other side is R[2,1b,1,1b]) and in no type-condition block
@pytest.mark.parametrize("idx", [(0, 1, 3, 4), (0, 3, 1, 3)])
def test_the_scoreboard_verdicts_read_the_stack(monkeypatch, idx):
    """One numerator bumped by 1 in every stored curvature the scoreboard's stack
    holds turns every expected Kahler-like row into an observed klike=false."""
    stored, n = connection._stored, flat_offset(idx)

    def bumped(half):
        z = stored(half)
        z[0, ..., n] += 1
        return z

    monkeypatch.setattr(connection, "_stored", bumped)
    board = theorem_suite(SamplePlan(seed=0, points_per_case=1), threads=1)
    assert not board.passed
    positives = [c for c in board.cases if c.expected.startswith("klike=true")]
    assert {c.case_id for c in positives} == {c.case_id for c in THEOREM_CASES if c.expect_klike}
    assert all(c.observed.startswith("klike=false,") or c.observed == "klike=false"
               for c in positives)


def test_scoreboard_enumerates_every_case():
    board = theorem_suite(SamplePlan(seed=0, points_per_case=1))
    assert {c.case_id for c in board.cases} == {c.case_id for c in THEOREM_CASES}


def test_scoreboard_small_run_passes():
    board = theorem_suite(SamplePlan(seed=1, points_per_case=1))
    assert board.passed
    assert all(c.passed for c in board.cases)
    for conj in board.conjectures:
        assert conj.passed
        assert conj.checked > 0
    csv_text = board.to_csv()
    header = csv_text.splitlines()[0]
    assert header == "case_id,family,spec,expected,observed,witness"


def test_parallel_matches_serial():
    plan = SamplePlan(seed=2, points_per_case=1)
    serial = theorem_suite(plan, threads=1)
    parallel = theorem_suite(plan, threads=2)
    assert serial.to_json() == parallel.to_json()


def test_threads_env(monkeypatch):
    from curvlab.verify import _threads_from_env

    monkeypatch.setenv("CURVLAB_THREADS", "3")
    assert _threads_from_env() == 3
    # only parsed here; theorem_suite clamps it, and no pool is started here
    monkeypatch.setenv("CURVLAB_THREADS", "100000")
    assert _threads_from_env() == 100000
    monkeypatch.setenv("CURVLAB_THREADS", "junk")
    assert _threads_from_env() == 1
    monkeypatch.delenv("CURVLAB_THREADS")
    assert _threads_from_env() == 1


def test_thread_count_is_clamped_where_the_pool_is_sized(monkeypatch):
    """An explicit threads argument and CURVLAB_THREADS both size the pool to at most
    one worker per core and per theorem case.  The pool is a stub that runs the
    cases in this process, so no worker process is started."""
    asked = []

    class InProcessPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *items):
            return map(fn, *items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    plan = SamplePlan(seed=2, points_per_case=1)
    serial = theorem_suite(plan, threads=1).to_json()
    assert asked == []
    for cores in (8, 1000):
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        assert theorem_suite(plan, threads=10**6).to_json() == serial
        monkeypatch.setenv("CURVLAB_THREADS", str(10**6))
        assert theorem_suite(plan).to_json() == serial
        monkeypatch.delenv("CURVLAB_THREADS")
    assert asked == [8, 8, len(THEOREM_CASES), len(THEOREM_CASES)]


def _sweep_digest():
    results = structural_sweep(SamplePlan(seed=0), metrics_per_structure=1,
                               random_gauduchon=1)
    return hashlib.sha256("\n".join(r.describe() for r in results).encode()).hexdigest()


def test_sweep_rows_are_pinned():
    # names, order, point labels and PASS/FAIL text of every sweep row
    assert _sweep_digest() == "157495b7d8cbb5a9d1cc5f0d99d16a8bc4a6f35fd59bb083362dbcad72191cff"


def test_sweep_failure_witnesses_are_pinned(monkeypatch):
    """With T negated in every point's shared plane, the failing rows (the nabla-j
    rows of the connections with torsion) and their exact witnesses are pinned too."""
    def broken(h, alg):
        p = connection.ConnectionPlane(h, alg)
        t, c = p.forms
        p.forms = (-t, c)
        return p

    monkeypatch.setattr(verify, "ConnectionPlane", broken)
    assert _sweep_digest() == "d84bff320da51bb10c77c3e0373df5c0895770d370418b28e8975ef07bd9a8d8"


def test_structural_sweep_small():
    results = structural_sweep(SamplePlan(seed=0), metrics_per_structure=1,
                               random_gauduchon=1)
    assert results
    bad = [r for r in results if not r.passed]
    assert not bad, [r.describe() for r in bad]
    names = {r.name.split("[")[0] for r in results}
    assert names >= {"lie-algebra", "g-ginv-identity", "d-squared",
                     "curvature-symmetries", "nabla-g", "nabla-j", "bianchi-defect"}


def _loop_identity_witness(prod):
    """The first entry where a 6x6 matrix differs from the Kronecker delta, by a loop
    over the lists: the reference of verify._identity_witness."""
    for n, (i, j) in enumerate(all_indices(2)):
        re, im = prod.re[n] - (prod.den if i == j else 0), prod.im[n]
        if re or im:
            return (f"(g*g_inv - id)[{index_name(i)},{index_name(j)}]",
                    numerator_value(re, im, prod.den))
    return None


def test_identity_witness_matches_the_list_loop():
    """The mask witness of g*g_inv = id equals the loop's (label, value) on crafted
    products: delta itself, one off-diagonal entry, a diagonal entry off by one, and
    each of those over a den of at least 2^63, whose numerators take object arrays."""
    checked = 0
    for den in (3, 2 ** 63 + 5):
        delta = [den if i == j else 0 for i, j in all_indices(2)]
        off = delta[:]
        off[6 * 1 + 4] = -2
        diag = delta[:]
        diag[6 * 4 + 4] += 1
        for re, im, want_none in ((delta, [0] * 36, True), (off, [0] * 36, False),
                                  (diag, [0] * 36, False), (delta, off, False)):
            prod = MultiTensor.from_numerators(2, re[:], im[:], den)
            got = verify._identity_witness(prod)
            assert got == _loop_identity_witness(prod)
            assert (got is None) == want_none
            checked += 1
    assert checked == 8
    big = MultiTensor.from_numerators(2, diag, [0] * 36, 2 ** 63 + 5)
    assert verify._identity_witness(big) == ("(g*g_inv - id)[2b,2b]",
                                             GaussianRational(Rat(1, 2 ** 63 + 5)))


def test_structural_failures_name_a_nonzero_entry(monkeypatch):
    """A FAIL of g*g_inv = id or of d o d = 0 carries the first offending entry
    and its exact nonzero value: 1/7 added to one entry of g*g_inv, or to one
    entry of d(omega), is reported where it lands."""
    contract, exterior_d = verify.contract, verify.exterior_d

    def bumped(t, idx):
        t = t.copy()
        t[idx] = t[idx] + GaussianRational(Rat(1, 7))
        return t

    def failures():
        results = structural_sweep(SamplePlan(seed=0), metrics_per_structure=1,
                                   random_gauduchon=0)
        return [r for r in results if not r.passed]

    monkeypatch.setattr(verify, "_SWEEP_STRUCTURES", (("sl2c", {}),))
    monkeypatch.setattr(verify, "contract", lambda *args: bumped(contract(*args), (1, 4)))
    (bad,) = failures()
    assert bad.name.startswith("g-ginv-identity[")
    assert bad.describe().startswith(
        "FAIL g-ginv-identity[sl2c{} metric#0]: (g*g_inv - id)[2,2b] = 1/7 at ")

    monkeypatch.setattr(verify, "contract", contract)
    seen = []

    def bumped_d(alpha, alg):
        seen.append((bumped(exterior_d(alpha, alg), (2, 3, 4)), alg))
        return seen[-1][0]

    monkeypatch.setattr(verify, "exterior_d", bumped_d)
    (bad,) = failures()
    assert bad.name.startswith("d-squared[")
    (domega, alg), = seen
    idx, value = next((idx, v) for idx in itertools.combinations(range(6), 4)
                      if not (v := d_component(domega, alg, idx)).is_zero())
    assert {3, 4} <= set(idx)  # only tuples holding the bumped entry's last two slots
    names = ",".join(index_name(i) for i in idx)
    assert bad.describe().startswith(
        f"FAIL d-squared[sl2c{{}} metric#0]: d(d omega)[{names}] = {value} at ")


def test_oracles_catch_a_flipped_sign_in_the_d_table(monkeypatch):
    """With the sign of the slot pair (0, 2) flipped in the table of d on 2-forms,
    d(omega) and the torsion forms read from it are wrong: the seed-0 sweep fails
    d o d = 0 (read through the unflipped table of d on 3-forms), the curvature
    symmetries and nabla J, and the goldens fail; both pass unpatched."""
    def failures():
        results = structural_sweep(SamplePlan(seed=0), metrics_per_structure=1,
                                   random_gauduchon=1)
        counts = collections.Counter(r.name.split("[")[0] for r in results if not r.passed)
        rows = verify.appendix_suite(SamplePlan(seed=0, points_per_case=1))
        return counts, sum(not equal for *_, equal in rows)

    assert failures() == (collections.Counter(), 0)
    tables = algebra._d_tables

    def flipped(n):
        tuples, rows, rest, signs, fill = tables(n)
        if n == 3:
            signs = signs.copy()
            signs[1] = -signs[1]  # the pair (0, 2)
        return tuples, rows, rest, signs, fill

    monkeypatch.setattr(algebra, "_d_tables", flipped)
    counts, mismatches = failures()
    assert counts == {"d-squared": 15, "curvature-symmetries": 102, "nabla-j": 85}
    assert mismatches == 210


def test_each_point_builds_its_connection_plane_once(monkeypatch):
    """The scoreboard and the sweep build T, C and the c.g table once per point, for
    classify_metric and every connection there; the sweep's Bianchi defect reads the
    point's stacked pass and builds neither again."""
    counts = collections.Counter()

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    forms = metric.torsion_forms
    monkeypatch.setattr(metric, "torsion_forms", counted("forms", forms))
    monkeypatch.setattr(connection, "torsion_forms", counted("forms", forms))
    monkeypatch.setattr(connection, "_lc_sum", counted("lc", connection._lc_sum))

    theorem_suite(SamplePlan(seed=0, points_per_case=1), threads=1)
    points = len(THEOREM_CASES)
    assert points == 50
    assert counts == {"forms": points, "lc": points}

    counts.clear()
    structural_sweep(SamplePlan(seed=0), metrics_per_structure=1, random_gauduchon=1)
    points = len(verify._SWEEP_STRUCTURES)
    assert counts == {"forms": points, "lc": points}


def test_the_scoreboard_runs_one_operator_per_point(monkeypatch):
    """The seed-0 scoreboard at 1 point per case evaluates its 161 connections in 50
    stacked passes: one curvature operator call per point."""
    calls = []
    operator = connection._operator

    def counted(over, x):
        calls.append(len(over[2]))
        return operator(over, x)

    monkeypatch.setattr(connection, "_operator", counted)
    board = theorem_suite(SamplePlan(seed=0, points_per_case=1), threads=1)
    assert len(calls) == len(THEOREM_CASES) == 50
    assert sum(calls) == len(board.cases) == 161


def test_appendix_builds_each_point_once(monkeypatch):
    """verify appendix --seed 0 --points 2 --draws 2 compares 10 points (4 Ni, 4 Si-B0,
    2 Si-g20) at 34 connections (5 eps on Ni and Si-g20, Chern on Si-B0): one metric,
    one pair of torsion forms and one stacked pass per point, one curvature per
    (point, eps)."""
    counts = collections.Counter()

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            if name == "curvature_stack":
                counts["curvature"] += len(args[0])
            return fn(*args)
        return wrapper

    for module, name in ((goldens, "build_metric"), (connection, "torsion_forms"),
                         (goldens, "curvature_stack")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    rows = verify.appendix_suite(SamplePlan(seed=0, points_per_case=2), draws=2)
    assert counts == {"build_metric": 10, "torsion_forms": 10,
                      "curvature_stack": 10, "curvature": 34}
    assert rows and all(ok for *_, ok in rows)
