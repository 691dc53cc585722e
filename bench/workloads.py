"""The benchmark workloads: seeded inputs, the timed call, and the exactness checks.

Each workload drives one of curvlab's real entry points in a closed loop
(one caller, each call waits for the previous one, no worker processes):

* ``scoreboard``: ``verify.theorem_suite`` at one point per case, threads
  pinned to 1.  Every pass uses fresh seeded samples.
* ``structural``: ``verify.structural_sweep`` at one metric per structure.
* ``defect-queries``: the structural sweep's checks for one (structure,
  metric, connection) per call, ending in the torsion Bianchi defect.
* ``golden-queries``: independent single-connection queries on the three
  golden slices, each through the ``check-kl`` path of the public API.
* ``flow``: short invariant Ricci-flow runs over several catalog structures.

Inputs depend only on the workload seed.  Each call's output is checked
outside the timed region; a check returns ``(attempted, failures)``.
See WORKLOADS.md for why each workload exists and what it stresses.
"""

from __future__ import annotations

import itertools
import random

import numpy as np

from curvlab import algebra, catalog, connection, flow, goldens, metric, symmetry, verify
from curvlab.scalars import GaussianRational, Rat
from curvlab.tensors import contract, identity_tensor

# The structural sweep's structures, in its order.  ``defect-queries`` rotates
# through them; a sweep over a different number of structures does different
# work, so the structural check flags it.
SWEEP_TABLE = (
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
# Connections per sweep point: the presets, then this many random Gauduchon eps.
SWEEP_RANDOM_EPS = 3
SWEEP_SPEC_SLOTS = len(connection.PRESETS) + SWEEP_RANDOM_EPS

# Family points of the flow workload: every nilpotent family and a spread of
# solvable ones, with sl2c as the one non-solvable algebra.
FLOW_STRUCTURES = (
    ("Np", {"rho": 1}),
    ("Ni", {"rho": 1, "lambda": "1/2", "D": "1/3+2/5*i"}),
    ("Nii", {"rho": 1, "B": "1/2-1/3*i", "c": "2/3"}),
    ("Niii", {"rho": 0, "sign": 1}),
    ("Si", {"A": "i"}),
    ("Sii", {"x": "1/2"}),
    ("Siii1", {"sign": 1}),
    ("Siv3", {"A": 2}),
    ("Sv", {}),
    ("sl2c", {}),
)
FLOW_STEP = 0.01
FLOW_STEPS = 40
# Exact and float Ricci at t = 0 must agree to this relative tolerance.
FLOW_RTOL = 1e-9

GOLDEN_SI_A = ("1", "i", "3/5+4/5*i", "-3/5+4/5*i", "5/13+12/13*i")


def _rand_eps(rng):
    return Rat(rng.randint(-6, 6), rng.randint(1, 6))


# -- checks ----------------------------------------------------------------------

def check_scoreboard(board):
    """Every case observes exactly its expectation, every conjecture is exercised and holds."""
    failures = [f"case {c.case_id} [{c.spec}]: expected {c.expected}, observed {c.observed}"
                for c in board.cases if not (c.passed and c.observed == c.expected)]
    failures += [f"conjecture {cj.conj_id}: checked {cj.checked}, violations {list(cj.violations)}"
                 for cj in board.conjectures if not (cj.passed and cj.checked > 0)]
    if not board.passed:
        failures.append("Scoreboard.passed is false")
    return len(board.cases) + len(board.conjectures) + 1, failures


def expected_sweep_checks(metrics_per_structure=1):
    """Number of IdentityResults the sweep plan implies."""
    presets = [connection.ConnectionSpec.preset(name) for name in connection.PRESETS]
    n_specs = len(presets) + SWEEP_RANDOM_EPS
    n_gauduchon = sum(s.is_gauduchon for s in presets) + SWEEP_RANDOM_EPS
    per_metric = 2 + 3 * n_specs + n_gauduchon
    return len(SWEEP_TABLE) * (1 + metrics_per_structure * per_metric)


def check_structural(results):
    """Every identity holds, and the sweep made as many checks as its plan implies."""
    failures = [r.describe() for r in results if not r.passed]
    want = expected_sweep_checks()
    if len(results) != want:
        failures.append(f"sweep made {len(results)} checks, plan implies {want}")
    return len(results) + 1, failures


def golden_components(curv, labels):
    """Read the oracle's labelled components (R[i,j,k,lb], B[i,jb,k,lb]) off a curvature."""
    b = symmetry.BTensor(curv)
    out = {}
    for label in labels:
        i, j, k, l = (int(ch) - 1 for ch in label if ch.isdigit())
        out[label] = curv.tensor[i, j, k, l + 3] if label[0] == "R" else b.component(i, j, k, l)
    return out


def check_defect(out):
    """Every identity of the sweep holds at the point, and the Bianchi defect is exactly zero."""
    failures = []
    if not out["lie_algebra"].passed:
        failures.append(f"Lie algebra identities fail: {out['lie_algebra'].failures()[0].name}")
    for name in ("g_ginv_identity", "d_squared_zero"):
        if not out[name]:
            failures.append(f"{name} is false")
    for name in ("curvature_symmetries", "nabla_g", "nabla_j"):
        if out[name]:
            failures.append(f"{name} fails at {out[name][0]}")
    if not out["defect"].is_zero():
        idx, v = next(out["defect"].nonzero())
        failures.append(f"Bianchi defect {idx} = {v}")
    return 7, failures


def check_golden(expected, curv):
    """Every closed-form component equals the timed call's component exactly.

    ``goldens.compare_components`` would recompute the curvature; this checks
    the output the benchmark timed.
    """
    got = golden_components(curv, expected)
    failures = [f"{label}: expected {expected[label]}, got {got[label]}"
                for label in sorted(expected) if got[label] != expected[label]]
    return len(expected), failures


def check_flow_ricci(exact_ric, float_ric):
    """The exact and the float Ricci of the same t = 0 metric agree."""
    exact = np.array([[complex(float(v.re), float(v.im)) for v in row] for row in exact_ric])
    scale = max(1.0, float(np.abs(exact).max()))
    err = float(np.abs(exact - np.asarray(float_ric)).max())
    return 1, ([] if err <= FLOW_RTOL * scale else [f"exact/float Ricci differ by {err:.3e}"])


# -- workloads -------------------------------------------------------------------

class Scoreboard:
    name = "scoreboard"
    trace_calls = 1

    def inputs(self, seed):
        for k in itertools.count():
            yield verify.SamplePlan(seed=seed * 1000 + k, points_per_case=1)

    def call(self, plan):
        return verify.theorem_suite(plan, threads=1)

    def check(self, plan, board, tracer):
        return check_scoreboard(board)

    def size(self, board):
        ppc = board.points_per_case
        return len(board.cases) * ppc, len({c.case_id for c in board.cases}) * ppc, 0

    def fingerprint(self, board):
        return board.to_json()

    def repeat(self, index, board):
        return index == 0


class Structural:
    name = "structural"
    trace_calls = 1

    def inputs(self, seed):
        for k in itertools.count():
            yield verify.SamplePlan(seed=seed * 1000 + k)

    def call(self, plan):
        return verify.structural_sweep(plan, metrics_per_structure=1,
                                       random_gauduchon=SWEEP_RANDOM_EPS)

    def check(self, plan, results, tracer):
        return check_structural(results)

    def size(self, results):
        configs = sum(r.name.startswith("bianchi-defect[") for r in results)
        points = sum(r.name.startswith("g-ginv-identity[") for r in results)
        return configs, points, 0

    def fingerprint(self, results):
        return tuple(r.describe() for r in results)

    def repeat(self, index, results):
        # a second sweep costs as much as the first; the traced run repeats it instead
        return False


class DefectQueries:
    """One (structure, metric, connection) of the structural sweep per call: the
    sweep's checks of the structure, of the point and of the connection.

    Call ``k`` takes structure ``k mod 21`` and connection slot
    ``(4 * (k div 21) + k) mod 9``, so every 21 calls visit each structure once
    and 189 calls visit every (structure, slot) pair.  Slots 0-5 are the
    presets; slots 6-8 draw a fresh Gauduchon eps as the sweep does.  Every
    call gets a freshly sampled generic metric.
    """

    name = "defect-queries"
    trace_calls = 42

    def inputs(self, seed):
        rng = random.Random(f"defect-queries:{seed}")
        presets = [connection.ConnectionSpec.preset(name) for name in connection.PRESETS]
        n = len(SWEEP_TABLE)
        for k in itertools.count():
            family, params = SWEEP_TABLE[k % n]
            slot = (4 * (k // n) + k) % SWEEP_SPEC_SLOTS
            if slot < len(presets):
                spec = presets[slot]
            else:
                spec = connection.ConnectionSpec.gauduchon(
                    Rat(rng.randint(-12, 12), rng.randint(1, 8)))
            yield (catalog.FamilySpec.make(family, **params),
                   verify.sample_metric(rng, shape="any"), spec)

    def call(self, query):
        structure, params, spec = query
        alg = catalog.instantiate(structure)
        report = algebra.validate_lie_algebra(alg)
        h = metric.build_metric(params)
        table = connection.christoffel(spec, h, alg)
        curv = connection.curvature(table, h, alg)
        out = {
            "lie_algebra": report,
            "g_ginv_identity": contract(h.g, h.g_inv, 1, 0) == identity_tensor(),
            "d_squared_zero": algebra.d_is_zero(algebra.exterior_d(h.omega, alg), alg),
            "curvature_symmetries": connection.curvature_symmetry_failures(
                curv, check_symm=spec.is_lc),
            "nabla_g": connection.nabla_g_failures(table),
            "nabla_j": connection.nabla_j_failures(table) if spec.is_gauduchon else [],
            "curvature": curv,
        }
        out["torsion"], out["defect"] = connection.torsion_and_bianchi_defect(spec, h, alg)
        return out

    def check(self, query, out, tracer):
        return check_defect(out)

    def size(self, out):
        return 1, 1, 0

    def fingerprint(self, out):
        return (tuple((idx, str(v)) for idx, v in out["curvature"].tensor.nonzero()),
                tuple((idx, str(v)) for idx, v in out["torsion"].nonzero()))

    def repeat(self, index, out):
        return index == 0


class GoldenQueries:
    name = "golden-queries"
    trace_calls = 150

    def _draw(self, key, rng):
        if key == "Ni":
            d = GaussianRational(Rat(rng.randint(-3, 3), rng.randint(1, 3)),
                                 Rat(rng.randint(0, 3), rng.randint(1, 3)))
            st = catalog.FamilySpec.make("Ni", rho=rng.choice((0, 1)), D=d,
                                         **{"lambda": Rat(rng.randint(0, 3), rng.randint(1, 3))})
            return goldens.OracleCase(key, st, verify.sample_metric(rng, shape="offu-r1"),
                                      _rand_eps(rng))
        if key == "Si-B0":
            st = catalog.FamilySpec.make("Si", A=rng.choice(GOLDEN_SI_A))
            return goldens.OracleCase(key, st, verify.sample_metric(rng, shape="u-only"), Rat(0))
        st = catalog.FamilySpec.make("Si", A="i")
        return goldens.OracleCase(key, st, verify.sample_metric(rng, shape="vz-only"),
                                  _rand_eps(rng))

    def inputs(self, seed):
        rng = random.Random(f"golden-queries:{seed}")
        seen = set()
        for k in itertools.count():
            key = goldens.ORACLE_FAMILIES[k % len(goldens.ORACLE_FAMILIES)]
            while True:
                case = self._draw(key, rng)
                point = (key, repr(sorted(case.structure.params.items())),
                         repr(case.metric), case.eps)
                if point not in seen:
                    break
            seen.add(point)
            yield case, connection.ConnectionSpec.gauduchon(case.eps)

    def call(self, query):
        case, spec = query
        alg = catalog.instantiate(case.structure)
        h = metric.build_metric(case.metric)
        metric.classify_metric(h, alg)
        curv = connection.curvature(connection.christoffel(spec, h, alg), h, alg)
        symmetry.kahler_like_check(curv)
        connection.ricci_and_scalar(curv, h)
        return curv

    def check(self, query, curv, tracer):
        return check_golden(goldens.appendix_oracle(query[0]), curv)

    def size(self, curv):
        return 1, 1, 0

    def fingerprint(self, curv):
        return tuple((idx, str(v)) for idx, v in curv.tensor.nonzero())

    def repeat(self, index, curv):
        return index == 0


class Flow:
    name = "flow"
    trace_calls = 40

    def inputs(self, seed):
        rng = random.Random(f"flow:{seed}")
        for k in itertools.count():
            family, params = FLOW_STRUCTURES[k % len(FLOW_STRUCTURES)]
            alg = catalog.instantiate(catalog.FamilySpec.make(family, **params))
            h = metric.build_metric(verify.sample_metric(rng, shape="any"))
            yield alg, h

    def call(self, point):
        alg, h = point
        state = flow.flow_state_from_hermitian(h, alg)
        return state, flow.integrate_flow(state, FLOW_STEP * FLOW_STEPS, FLOW_STEP)

    def check(self, point, out, tracer):
        state, _ = out
        # recomputing the t = 0 Ricci is the check's cost, not the workload's
        with tracer.paused():
            exact = flow.ricci_rhs(state)
            approx = flow.ricci_rhs(flow.FlowState(0.0, state.as_float_matrix(), state.structure))
        return check_flow_ricci(exact, approx)

    def size(self, out):
        # the t = 0 sample is the exact evaluation and counts as a step
        return 1, 1, len(out[1].samples)

    def fingerprint(self, out):
        trace = out[1]
        return trace.halt_reason, len(trace.samples), trace.samples[-1].g6.tobytes()

    def repeat(self, index, out):
        # halts are an outcome of the input and must repeat exactly
        return index == 0 or not out[1].completed


WORKLOADS = {w.name: w for w in (Scoreboard, Structural, DefectQueries, GoldenQueries, Flow)}
