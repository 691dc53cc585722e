import random
from fractions import Fraction

import numpy as np
import pytest

from curvlab import flow
from curvlab.algebra import LieAlgebraCx, validate_lie_algebra
from curvlab.catalog import FamilySpec, instantiate
from curvlab.connection import ConnectionSpec, curvature_of, ricci_and_scalar
from curvlab.flow import (
    MAX_STEPS,
    FlowState,
    _lc_field,
    _project,
    _real_positive_definite,
    _structure_array,
    exact_lc_ricci,
    float_lc_ricci,
    flow_state_from_hermitian,
    hermitian_deviation,
    integrate_flow,
    ricci_rhs,
    step_count,
    trace_to_csv,
)
from curvlab.metric import MetricParams, build_metric
from curvlab.scalars import GaussianRational, gr
from curvlab.tensors import INDICES, MultiTensor, bar
from curvlab.verify import _SWEEP_STRUCTURES

from conftest import rand_metric
from test_connection import ref_exact_lc_ricci, reference_grid

# every nilpotent family and a spread of solvable ones, with sl2c as the one
# non-solvable algebra
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


def ref_float_symbols(g6, c):
    """Reference Levi-Civita symbols Gamma_{IH}^K as [I, H, K]: Koszul, then g6^{-1}."""
    low = 0.5 * (np.einsum("ihb,bl->ihl", c, g6)
                 - np.einsum("hlb,bi->ihl", c, g6)
                 - np.einsum("ilb,bh->ihl", c, g6))
    return np.einsum("ihl,lk->ihk", low, np.linalg.inv(g6))


def ref_float_lc_ricci(g6, c):
    """Reference: the rank-4 operator R(I,H)K^A built in full, then traced over I = A."""
    gm = ref_float_symbols(g6, c)
    rop = (np.einsum("hkb,iba->ihka", gm, gm)
           - np.einsum("ikb,hba->ihka", gm, gm)
           - np.einsum("ihb,bka->ihka", c, gm))
    return np.einsum("ahka->hk", rop)


def _rel_err(a, b):
    # relative to the larger entry, or absolute where both sides vanish
    return np.abs(a - b).max() / max(np.abs(a).max(), np.abs(b).max(), 1.0)


def _real_frame_ricci(alg, g6_float):
    """Textbook oracle: Koszul formula and Ricci trace on a real frame."""
    basis = np.zeros((6, 6), dtype=complex)
    for k in range(3):
        basis[2 * k, k] = 1
        basis[2 * k, k + 3] = 1
        basis[2 * k + 1, k] = 1j
        basis[2 * k + 1, k + 3] = -1j
    binv = np.linalg.inv(basis.T)
    c = np.zeros((6, 6, 6), dtype=complex)
    for (i, h, k), v in alg.c.nonzero():
        c[i, h, k] = complex(float(v.re), float(v.im))
    f = np.zeros((6, 6, 6))
    for a in range(6):
        for b in range(6):
            coords = binv @ np.einsum("i,h,ihk->k", basis[a], basis[b], c)
            assert np.allclose(coords.imag, 0, atol=1e-10)
            f[a, b] = coords.real
    gram = (basis @ g6_float @ basis.T).real
    kos = 0.5 * (np.einsum("abd,dc->abc", f, gram)
                 - np.einsum("bcd,da->abc", f, gram)
                 + np.einsum("cad,db->abc", f, gram))
    gm = np.einsum("abc,cd->abd", kos, np.linalg.inv(gram))
    rop = (np.einsum("bcd,ade->abce", gm, gm)
           - np.einsum("acd,bde->abce", gm, gm)
           - np.einsum("abd,dce->abce", f, gm))
    return np.einsum("abca->bc", rop), basis


def _to_float(t):
    """The rank-2 tensor t as a complex 6 x 6 array, one float() per rational part."""
    return np.array([[complex(float(t[i, j].re), float(t[i, j].im)) for j in INDICES]
                     for i in INDICES])


def test_exact_matches_float_and_real_frame_oracle(rng):
    alg = instantiate(FamilySpec.make("Ni", rho=0, **{"lambda": 0}, D="i"))
    state = flow_state_from_hermitian(build_metric(rand_metric(rng)), alg)
    ric_exact = _to_float(exact_lc_ricci(state.g6, alg))
    ric_float = float_lc_ricci(state.as_float_matrix(), _lc_field(_structure_array(alg)))
    assert np.allclose(ric_exact, ric_float, atol=1e-12)
    ric_real, basis = _real_frame_ricci(alg, state.as_float_matrix())
    assert np.allclose(ric_real, (basis @ ric_float @ basis.T).real, atol=1e-9)


def _correctly_rounded(q):
    """float of the rational q rounded once, to nearest, on either rational backend."""
    return float(Fraction(int(q.numerator), int(q.denominator)))


def test_the_structure_array_is_correctly_rounded():
    """_structure_array divides c's Python-int numerators by c.den, one rounding per part:
    bit for bit the per-entry float of each value, on every flow structure and on an Ni
    point whose D and lambda have numerators and denominators beyond 2^53, where a
    float64 numerator over a float64 denominator rounds twice and misses."""
    big = FamilySpec.make("Ni", rho=1, **{"lambda": "12345678901234567891/98765432109876543211"},
                          D="12345678901234567891/3+1/98765432109876543211*i")
    algs = [instantiate(FamilySpec.make(family, **params)) for family, params in FLOW_STRUCTURES]
    for alg in algs + [instantiate(big)]:
        ref = np.zeros((6, 6, 6), dtype=complex)
        for (i, h, k), v in alg.c.nonzero():
            ref[i, h, k] = complex(_correctly_rounded(v.re), _correctly_rounded(v.im))
        assert _structure_array(alg).tobytes() == ref.tobytes()
    c = instantiate(big).c
    assert c.den > 2 ** 53
    assert any(c.re[n] / c.den != float(c.re[n]) / float(c.den) for n, _ in c.nonzero_offsets())


def _non_hermitian_sii_state():
    alg = instantiate(FamilySpec.make("Sii", x="1/2"))
    state = flow_state_from_hermitian(build_metric(MetricParams.make(r2=2, s2=1, t2=1)), alg)
    g = state.g6.copy()  # h.g itself: edit a copy
    g[0, 0] = g[0, 0] + gr("1/10")
    g[3, 3] = g[3, 3] + gr("1/10")  # conjugation-real partner
    return FlowState(0.0, g, alg)


def test_oracle_on_non_hermitian_state():
    st = _non_hermitian_sii_state()
    st.validate()
    ric_exact = _to_float(exact_lc_ricci(st.g6, st.structure))
    ric_real, basis = _real_frame_ricci(st.structure, st.as_float_matrix())
    assert np.allclose(ric_real, (basis @ ric_exact @ basis.T).real, atol=1e-9)


def test_exact_ricci_matches_the_operator_trace():
    """The direct trace equals the trace of the full reference operator, exactly, on
    the non-Hermitian Sii state and the connection tests' reference grid metrics."""
    states = [_non_hermitian_sii_state()]
    states += [flow_state_from_hermitian(h, alg) for _, alg, h, _ in reference_grid("ricci")]
    assert len(states) == 1 + 21 * 2
    for st in states:
        assert exact_lc_ricci(st.g6, st.structure) == ref_exact_lc_ricci(st.g6, st.structure)


def test_float_field_matches_exact_and_operator_reference(rng):
    states = [_non_hermitian_sii_state()]
    for family, params in _SWEEP_STRUCTURES:
        alg = instantiate(FamilySpec.make(family, **params))
        states += [flow_state_from_hermitian(build_metric(rand_metric(rng)), alg)
                   for _ in range(2)]
    assert len(states) == 1 + 2 * 21
    for st in states:
        m, c = st.as_float_matrix(), _structure_array(st.structure)
        ric = float_lc_ricci(m, _lc_field(c))
        assert _rel_err(ric, _to_float(exact_lc_ricci(st.g6, st.structure))) <= 1e-12
        assert _rel_err(ric, ref_float_lc_ricci(m, c)) <= 1e-12


def test_flow_traces_match_the_operator_reference_field(rng):
    for family, params in FLOW_STRUCTURES:
        alg = instantiate(FamilySpec.make(family, **params))
        state = flow_state_from_hermitian(build_metric(rand_metric(rng)), alg)
        c = _structure_array(alg)
        got = integrate_flow(state, horizon=0.4, step=0.01)
        ref = integrate_flow(state, horizon=0.4, step=0.01,
                             rhs=lambda m: -ref_float_lc_ricci(m, c))
        assert got.completed and ref.completed and len(got.samples) == 41
        for a, b in zip(got.samples, ref.samples):
            assert _rel_err(a.g6, b.g6) <= 1e-12
            assert abs(a.deviation - b.deviation) <= 1e-12 * max(abs(a.g6).max(), 1.0)
        for a, b in zip(got.samples[1:], ref.samples[1:]):
            assert abs(a.ricci_norm - b.ricci_norm) <= 1e-12 * max(b.ricci_norm, 1.0)


def _aff_r_plus_r4():
    """aff(R) + R^4, [X_0, X_1] = X_1 on the real frame X_k = phi_k + phi_kb: every
    bracket of phi_0 or phi_0b with phi_1 or phi_1b is X_1 / 4.  Not unimodular:
    sum_A c_{AB}^A is -1/2 at B = 0 and B = 0b."""
    return LieAlgebraCx.from_structure_constants(
        {(0, 1, 1): "1/4", (0, 1, 4): "1/4", (0, 4, 1): "1/4", (0, 4, 4): "1/4"})


def test_the_trace_term_on_a_non_unimodular_algebra(rng):
    """Every catalog algebra is unimodular, so there the first term of the trace,
    Gamma_{HK}^B Gamma_{AB}^A, is zero; here it is not, and both paths must keep it."""
    alg = _aff_r_plus_r4()
    assert validate_lie_algebra(alg).passed
    c = _structure_array(alg)
    trc = c.trace(axis1=0, axis2=2)
    assert np.array_equal(trc, [-0.5, 0, 0, -0.5, 0, 0])
    # Gamma_{AB}^A = c_{AB}^A summed over A at any symmetric invertible metric
    nprng = np.random.default_rng(24)
    a = nprng.normal(size=(6, 6)) + 1j * nprng.normal(size=(6, 6))
    g = a + a.T + 8 * np.eye(6)
    assert np.abs(np.trace(ref_float_symbols(g, c), axis1=0, axis2=2) - trc).max() <= 1e-12

    states = [flow_state_from_hermitian(build_metric(rand_metric(rng)), alg) for _ in range(2)]
    for st in states:
        assert exact_lc_ricci(st.g6, alg) == ref_exact_lc_ricci(st.g6, alg)
        m = st.as_float_matrix()
        ric = float_lc_ricci(m, _lc_field(c))
        assert _rel_err(ric, ref_float_lc_ricci(m, c)) <= 1e-12
        assert _rel_err(ric, _to_float(exact_lc_ricci(st.g6, alg))) <= 1e-12
        ric_real, basis = _real_frame_ricci(alg, m)
        assert np.allclose(ric_real, (basis @ ric @ basis.T).real, atol=1e-9)


# The integrator before its step was cut to fewer numpy calls, kept as a reference:
# the solve-based field (LT, trc, cX) with LT laid out [L, (I, H)] and built by
# einsum, every stage input projected, and positivity read on the real-frame Gram.
_REAL_FRAME = np.array([[1, 0, 0, 1, 0, 0], [1j, 0, 0, -1j, 0, 0],
                        [0, 1, 0, 0, 1, 0], [0, 1j, 0, 0, -1j, 0],
                        [0, 0, 1, 0, 0, 1], [0, 0, 1j, 0, 0, -1j]])


def ref_lc_field(c):
    eye = np.eye(6)
    lt = 0.5 * (np.einsum("ihb,ml->lihbm", c, eye)
                - np.einsum("hlb,mi->lihbm", c, eye)
                - np.einsum("ilb,mh->lihbm", c, eye))
    return lt.reshape(216, 36), c.trace(axis1=0, axis2=2), c.transpose(1, 0, 2).reshape(6, 36)


def ref_field_lc_ricci(g6, field):
    lt, trc, cx = field
    s = np.linalg.solve(g6, (lt @ g6.reshape(36)).reshape(6, 36))
    return ((trc @ s).reshape(6, 6)
            - (s.reshape(6, 6, 6).transpose(1, 2, 0).reshape(6, 36) + cx) @ s.reshape(36, 6))


def ref_real_positive_definite(m):
    try:
        np.linalg.cholesky((_REAL_FRAME @ m @ _REAL_FRAME.T).real)
        return True
    except np.linalg.LinAlgError:
        return False


def ref_integrate_flow(state, horizon, step):
    """The reference integrator on the default field: one (g6, deviation, ricci_norm)
    per sample, the t = 0 norm from the exact Ricci."""
    field = ref_lc_field(_structure_array(state.structure))
    rhs = lambda m: -ref_field_lc_ricci(m, field)
    m = state.as_float_matrix()
    k1 = rhs(m)
    norm0 = np.linalg.norm(_to_float(exact_lc_ricci(state.g6, state.structure)))
    samples = [(m, hermitian_deviation(m), float(norm0))]
    for _ in range(round(horizon / step)):
        k2 = rhs(_project(m + 0.5 * step * k1))
        k3 = rhs(_project(m + 0.5 * step * k2))
        k4 = rhs(_project(m + step * k3))
        m = _project(m + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        assert ref_real_positive_definite(m)
        k1 = rhs(m)
        samples.append((m, hermitian_deviation(m), float(np.linalg.norm(k1))))
    return samples


def _flow_algebras():
    """The flow workload's structures and the non-unimodular aff(R) + R^4."""
    return ([instantiate(FamilySpec.make(family, **params)) for family, params in FLOW_STRUCTURES]
            + [_aff_r_plus_r4()])


def test_the_integrator_matches_the_reference_sample_by_sample(rng):
    for alg in _flow_algebras():
        state = flow_state_from_hermitian(build_metric(rand_metric(rng)), alg)
        got = integrate_flow(state, horizon=0.4, step=0.01)
        ref = ref_integrate_flow(state, 0.4, 0.01)
        assert got.completed and len(got.samples) == len(ref) == 41
        for s, (g6, deviation, ricci_norm) in zip(got.samples, ref):
            assert _rel_err(s.g6, g6) <= 1e-12
            assert _rel_err(s.deviation, deviation) <= 1e-12
            assert _rel_err(s.ricci_norm, ricci_norm) <= 1e-12


def test_positivity_on_the_hermitian_form_matches_the_real_frame_gram():
    # m = F^{-1} G F^{-T} has the real-frame Gram G = Q diag(lam) Q^T, each |lam| >= 1e-3
    finv = np.linalg.inv(_REAL_FRAME)
    nprng = np.random.default_rng(26)
    seen = set()
    for _ in range(200):
        q, _ = np.linalg.qr(nprng.normal(size=(6, 6)))
        lam = 10.0 ** nprng.uniform(-3, 1, size=6) * nprng.choice([-1, 1], size=6, p=[0.15, 0.85])
        m = _project(finv @ (q * lam) @ q.T @ finv.T)
        positive = bool((lam > 0).all())
        assert ref_real_positive_definite(m) == positive
        assert _real_positive_definite(m) == positive
        seen.add(positive)
    assert seen == {True, False}


def test_the_broadcast_field_matches_the_einsum_construction_to_the_bit():
    for alg in _flow_algebras():
        c = _structure_array(alg)
        lt, k = _lc_field(c)
        ref_lt = np.ascontiguousarray(ref_lc_field(c)[0].reshape(6, 6, 6, 36).transpose(1, 2, 0, 3))
        # einsum sums into a zeroed array, so it writes +0 where the product c_{IHB} 0 is
        # -0 (a negative real part); adding 0.0 turns -0 into +0 and leaves every other bit
        assert lt.shape == (216, 36) and (lt + 0.0).tobytes() == (ref_lt + 0.0).tobytes()
        assert k.shape == (6, 36)
    # K[H, (B, A)] + c_{BH}^A is the delta block trc_B delta_{AH}
    c = _structure_array(_aff_r_plus_r4())
    delta = _lc_field(c)[1].reshape(6, 6, 6) + c.transpose(1, 0, 2)
    trc = np.array([-0.5, 0, 0, -0.5, 0, 0])
    assert np.array_equal(delta, trc[None, :, None] * np.eye(6)[:, None, :])


def test_projection_is_the_two_halvings_to_the_bit():
    bar_ix = np.ix_([bar(i) for i in INDICES], [bar(i) for i in INDICES])
    nprng = np.random.default_rng(7)
    for scale in (1e-3, 1.0, 1e3):
        for _ in range(50):
            m = scale * (nprng.normal(size=(6, 6)) + 1j * nprng.normal(size=(6, 6)))
            m1 = 0.5 * (m + m.T)
            old = 0.5 * (m1 + np.conj(m1[bar_ix]))
            assert _project(m).tobytes() == old.tobytes()


def test_ric_lc_consistency_with_connection_module(rng):
    alg = instantiate(FamilySpec.make("Sv"))
    h = build_metric(rand_metric(rng))
    rd = ricci_and_scalar(curvature_of(ConnectionSpec.preset("lc"), h, alg), h)
    ric = exact_lc_ricci(flow_state_from_hermitian(h, alg).g6, alg)
    for i in INDICES:
        for j in INDICES:
            assert rd.ric_lc[i, j] == ric[i, j]


def test_rhs_zero_on_flat_structures(rng):
    torus = instantiate(FamilySpec.make("Np", rho=0))
    state = flow_state_from_hermitian(build_metric(rand_metric(rng)), torus)
    assert all(v.is_zero() for row in ricci_rhs(state) for v in row)

    g20 = instantiate(FamilySpec.make("Si", A="i"))
    state = flow_state_from_hermitian(build_metric(MetricParams.make(r2=2, s2=1, t2=3)), g20)
    assert all(v.is_zero() for row in ricci_rhs(state) for v in row)


def test_rhs_nonzero_on_h2():
    alg = instantiate(FamilySpec.make("Ni", rho=0, **{"lambda": 0}, D="i"))
    state = flow_state_from_hermitian(build_metric(MetricParams.make()), alg)
    rhs = ricci_rhs(state)
    assert any(not v.is_zero() for row in rhs for v in row)


def test_hermitian_deviation():
    alg = instantiate(FamilySpec.make("Np", rho=0))
    state = flow_state_from_hermitian(build_metric(MetricParams.make()), alg)
    assert hermitian_deviation(state.g6) == 0.0
    g = state.g6.copy()
    g[0, 0] = gr("1/10")
    assert abs(hermitian_deviation(g) - 0.1) < 1e-15
    m = state.as_float_matrix()
    m[1, 2] = 0.25j
    assert abs(hermitian_deviation(m) - 0.25) < 1e-15


def test_state_validation():
    alg = instantiate(FamilySpec.make("Np", rho=0))
    bad = np.zeros((6, 6), dtype=complex)
    bad[0, 1] = 1.0  # not symmetric
    with pytest.raises(ValueError):
        FlowState(0.0, bad, alg).validate()
    sym = np.eye(6, dtype=complex)  # symmetric, conjugation-real, but pure-type diag
    # pure-type identity has zero mixed block: not positive definite as a real metric
    with pytest.raises(ValueError):
        FlowState(0.0, sym, alg).validate()


def test_state_validation_tolerance_is_absolute():
    # 1e-6 is far above the stated 1e-12, whatever the size of the entries
    alg = instantiate(FamilySpec.make("Nii", rho=1, B="1/2-1/3*i", c="2/3"))
    good = flow_state_from_hermitian(build_metric(MetricParams.make(
        r2=2, s2=3, t2=5, u="1/2+1/3*i", v="-1/4+1/5*i", z="1/7-2/9*i")), alg).as_float_matrix()
    FlowState(0.0, good, alg).validate()
    asym = good.copy()
    asym[0, 4] += 1e-6
    with pytest.raises(ValueError, match="symmetric"):
        FlowState(0.0, asym, alg).validate()
    unreal = good.copy()
    unreal[0, 4] += 1e-6
    unreal[4, 0] += 1e-6  # symmetric, but its conjugate partner (1b, 2) is untouched
    with pytest.raises(ValueError, match="conjugation-real"):
        FlowState(0.0, unreal, alg).validate()
    with pytest.raises(ValueError, match="symmetric"):
        integrate_flow(FlowState(0.0, asym, alg), horizon=0.1, step=0.01)


def test_torus_flow_constant(rng):
    alg = instantiate(FamilySpec.make("Np", rho=0))
    state = flow_state_from_hermitian(build_metric(rand_metric(rng)), alg)
    trace = integrate_flow(state, horizon=1.0, step=0.01)
    assert trace.completed and len(trace.samples) == 101
    assert max(s.deviation for s in trace.samples) <= 1e-12
    drift = max(np.abs(s.g6 - trace.samples[0].g6).max() for s in trace.samples)
    assert drift <= 1e-12
    assert trace.samples[-1].deviation == 0.0


def test_sample_k_is_at_k_times_the_step(rng):
    """Each sample's time is k * step, not a running sum of steps: summing 0.1 ten times
    gives 0.9999999999999999, and 5 of the 11 summed times miss k * 0.1."""
    alg = instantiate(FamilySpec.make("Np", rho=0))
    trace = integrate_flow(flow_state_from_hermitian(build_metric(rand_metric(rng)), alg),
                           horizon=1.0, step=0.1)
    assert trace.completed
    assert [s.t for s in trace.samples] == [k * 0.1 for k in range(11)]
    assert trace.samples[-1].t == 1.0


def test_an_exact_start_is_h_g_and_builds_no_values(monkeypatch):
    """flow_state_from_hermitian shares h.g, and the state build plus a default-field run
    construct no GaussianRational and no MultiTensor from values: the start reaches
    floats from h.g's numerators, and integrate_flow calls exact_lc_ricci, through the
    module global, once."""
    alg = instantiate(FamilySpec.make("Nii", rho=1, B="1/2-1/3*i", c="2/3"))
    h = build_metric(MetricParams.make(r2=2, s2="3/2", t2=1, u="1/3*i"))
    built, exact_calls = [], []
    gr_init, tensor_init, exact = GaussianRational.__init__, MultiTensor.__init__, exact_lc_ricci

    def counted(kind, init):
        def wrapper(self, *args, **kwargs):
            built.append(kind)
            init(self, *args, **kwargs)
        return wrapper

    def counted_exact(g, alg):
        exact_calls.append(g)
        return exact(g, alg)

    monkeypatch.setattr(GaussianRational, "__init__", counted("value", gr_init))
    monkeypatch.setattr(MultiTensor, "__init__", counted("tensor", tensor_init))
    monkeypatch.setattr(flow, "exact_lc_ricci", counted_exact)
    state = flow_state_from_hermitian(h, alg)
    trace = integrate_flow(state, 0.4, 0.01)
    monkeypatch.undo()
    assert trace.completed and len(trace.samples) == 41
    assert built == []
    assert state.g6 is h.g
    assert len(exact_calls) == 1 and exact_calls[0] is h.g


def test_g20_kahler_flow_constant():
    alg = instantiate(FamilySpec.make("Si", A="i"))
    state = flow_state_from_hermitian(build_metric(MetricParams.make(r2=2, s2=1, t2="3/2")), alg)
    trace = integrate_flow(state, horizon=1.0, step=0.01)
    assert max(s.deviation for s in trace.samples) <= 1e-12
    drift = max(np.abs(s.g6 - trace.samples[0].g6).max() for s in trace.samples)
    assert drift <= 1e-12


def test_h2_flow_records_deviation_column():
    alg = instantiate(FamilySpec.make("Ni", rho=0, **{"lambda": 0}, D="i"))
    state = flow_state_from_hermitian(build_metric(MetricParams.make()), alg)
    trace = integrate_flow(state, horizon=1.0, step=0.01)
    assert len(trace.samples) == 101
    assert all(s.ricci_norm >= 0 for s in trace.samples)
    # no guarantee here: the connection is not Kahler-like, deviation may grow
    csv_text = trace_to_csv(trace)
    lines = csv_text.strip().splitlines()
    assert len(lines) == 102
    header = lines[0].split(",")
    assert header[0] == "t" and header[-2:] == ["deviation", "ricci_norm"]
    assert len(header) == 1 + 21 + 2


def test_integrator_rejects_bad_steps():
    alg = instantiate(FamilySpec.make("Np", rho=0))
    state = flow_state_from_hermitian(build_metric(MetricParams.make()), alg)
    with pytest.raises(ValueError):
        integrate_flow(state, horizon=1.0, step=0.0)
    with pytest.raises(ValueError):
        integrate_flow(state, horizon=-1.0, step=0.1)


def test_integrator_rejects_a_fractional_step_count():
    alg = instantiate(FamilySpec.make("Np", rho=0))
    state = flow_state_from_hermitian(build_metric(MetricParams.make()), alg)
    for horizon, step in ((1.0, 2.0), (1.0, 0.3)):
        with pytest.raises(ValueError, match="whole number of steps"):
            integrate_flow(state, horizon=horizon, step=step)
    assert len(integrate_flow(state, horizon=0.4, step=0.01).samples) == 41


def test_step_count_is_bounded():
    """A run of more than MAX_STEPS steps is refused before it starts: horizon 1 at step
    1e-10 asks for 10^10 steps.  Only step_count runs here, never such an integration."""
    assert MAX_STEPS == 100_000
    assert step_count(1000.0, 0.01) == MAX_STEPS
    for horizon, step in ((1.0, 1e-10), (1000.01, 0.01)):
        with pytest.raises(ValueError, match=f"steps, more than the limit of {MAX_STEPS}"):
            step_count(horizon, step)
    with pytest.raises(ValueError, match="asks for 10000000000 steps"):
        step_count(1.0, 1e-10)


def test_a_halt_names_its_fixed_step():
    """A fixed step can overshoot: from this start (Ni at the flow workload's point, the
    first metric of random.Random(5)) the step 0.01 loses positivity at once, and the
    halt says so; the step 0.001 keeps positivity up to t = 0.4."""
    alg = instantiate(FamilySpec.make("Ni", rho=1, **{"lambda": "1/2"}, D="1/3+2/5*i"))
    state = flow_state_from_hermitian(build_metric(rand_metric(random.Random(5))), alg)
    coarse = integrate_flow(state, horizon=0.4, step=0.01)
    assert coarse.halt_reason == \
        "positivity lost at t=0.01 (fixed step 0.01; a smaller step may keep it)"
    assert len(coarse.samples) == 1
    fine = integrate_flow(state, horizon=0.4, step=0.001)
    assert fine.completed and len(fine.samples) == 401
    assert fine.samples[-1].t == pytest.approx(0.4)
    _assert_same_samples(coarse.samples, fine.samples[:1])

    # sl2c from the first metric of random.Random(2) loses positivity after 100 steps or
    # more; the samples that trace keeps are those of the run that stops before the halt
    alg = instantiate(FamilySpec.make("sl2c"))
    state = flow_state_from_hermitian(build_metric(rand_metric(random.Random(2))), alg)
    halted = integrate_flow(state, horizon=2.0, step=0.01)
    kept = len(halted.samples)
    assert not halted.completed and kept > 100
    before = integrate_flow(state, horizon=0.01 * (kept - 1), step=0.01)
    assert before.completed and len(before.samples) == kept
    _assert_same_samples(halted.samples, before.samples)
    assert halted.halt_reason == (f"positivity lost at t={before.samples[-1].t + 0.01:.6g} "
                                  "(fixed step 0.01; a smaller step may keep it)")


def _assert_same_samples(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.t, a.deviation, a.ricci_norm) == (b.t, b.deviation, b.ricci_norm)
        assert a.g6.tobytes() == b.g6.tobytes()


def test_the_start_norm_comes_from_the_exact_ricci_numerators():
    """On Np at r2 = (10^200 + 1)/10^200, s2 = (10^200 + 3)/10^200 the exact Ricci's
    numerators pass 10^400, so a float of their squared sum overflows; the t = 0 norm is
    still the norm of the exact Ricci's float values.  Every sample's deviation is
    hermitian_deviation of its own g6, though the run takes them all in one pass."""
    alg = instantiate(FamilySpec.make("Np", rho=1))
    e = 10 ** 200
    h = build_metric(MetricParams.make(r2=f"{e + 1}/{e}", s2=f"{e + 3}/{e}"))
    state = flow_state_from_hermitian(h, alg)
    trace = integrate_flow(state, horizon=0.1, step=0.01)
    assert trace.completed and len(trace.samples) == 11
    norm0 = np.linalg.norm(_to_float(exact_lc_ricci(state.g6, alg)))
    assert abs(trace.samples[0].ricci_norm - norm0) <= 1e-15 * norm0
    assert trace.samples[0].ricci_norm == pytest.approx(1.224744871391589, rel=1e-15)
    for s in trace.samples:
        assert s.deviation == hermitian_deviation(s.g6)


def test_rk4_evaluates_the_field_four_times_per_step():
    # the field at each accepted point is that sample's norm and the next k1
    alg = instantiate(FamilySpec.make("Sii", x="1/2"))
    state = flow_state_from_hermitian(build_metric(MetricParams.make(r2=2, s2=1, t2=1)), alg)
    lc = _lc_field(_structure_array(alg))
    calls = []

    def field(m):
        calls.append(1)
        return -float_lc_ricci(m, lc)

    float_state = FlowState(0.0, state.as_float_matrix(), alg)
    trace = integrate_flow(float_state, horizon=0.1, step=0.01, rhs=field)
    assert trace.completed and len(calls) == 1 + 4 * 10
    # the same trace as the default field, which starts from the exact t = 0 Ricci
    default = integrate_flow(state, horizon=0.1, step=0.01)
    assert len(default.samples) == len(trace.samples) == 11
    for a, b in zip(trace.samples, default.samples):
        assert a.g6.tobytes() == b.g6.tobytes()
    assert [s.ricci_norm for s in trace.samples[1:]] == [
        s.ricci_norm for s in default.samples[1:]]


def test_rk4_order_round_trip():
    # perturb the Kahler stationary point, then integrate the true field
    # forward and time-reversed; the exact round trip is the identity
    alg = instantiate(FamilySpec.make("Si", A="i"))
    g_star = flow_state_from_hermitian(
        build_metric(MetricParams.make(r2=2, s2=1, t2="3/2")), alg).as_float_matrix()
    rng = np.random.default_rng(0)
    pert = rng.normal(size=(6, 6)) * 0.05
    pert = 0.5 * (pert + pert.T)
    bar_image = np.array([[np.conj(pert[(i + 3) % 6, (j + 3) % 6]) for j in range(6)]
                          for i in range(6)])
    pert = 0.5 * (pert + bar_image)
    g0 = g_star + pert
    FlowState(0.0, g0, alg).validate()

    lc = _lc_field(_structure_array(alg))
    forward = lambda m: -float_lc_ricci(m, lc)
    backward = lambda m: +float_lc_ricci(m, lc)

    def defect(step):
        out = integrate_flow(FlowState(0.0, g0.copy(), alg), horizon=0.5, step=step,
                             rhs=forward)
        assert out.completed
        back = integrate_flow(FlowState(0.0, out.samples[-1].g6.copy(), alg),
                              horizon=0.5, step=step, rhs=backward)
        assert back.completed
        return np.abs(back.samples[-1].g6 - g0).max()

    d1, d2 = defect(0.05), defect(0.025)
    assert d1 > 0
    assert d1 / d2 >= 8.0
