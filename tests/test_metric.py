import itertools
import random

import pytest

from curvlab.algebra import LieAlgebraCx, d_component, exterior_d
from curvlab.catalog import FamilySpec, instantiate
from curvlab.metric import (
    MetricParams,
    MetricValidationError,
    balanced_via_omega_squared,
    build_metric,
    classify_metric,
    j_factor,
    torsion_forms,
)
from curvlab.scalars import I, GaussianRational, Rat, gr
from curvlab.tensors import (
    BARRED,
    UNBARRED,
    MultiTensor,
    all_indices,
    contract,
    identity_tensor,
    inverse,
    is_barred,
)

from conftest import rand_metric

TORUS = LieAlgebraCx.from_dphi({})
IWASAWA = LieAlgebraCx.from_dphi({2: {(0, 1): gr(1)}})


def test_identity_metric():
    h = build_metric(MetricParams.make())
    assert h.det_scaled == gr(1)
    assert h.g[0, 3] == gr("1/2")
    assert h.omega[0, 3] == gr("1/2*i")


def test_rejections_name_the_inequality():
    with pytest.raises(MetricValidationError) as err:
        build_metric(MetricParams.make(r2=1, s2=1, u=1))
    assert err.value.constraint == "r2*s2 > |u|^2"
    with pytest.raises(MetricValidationError) as err:
        build_metric(MetricParams.make(r2=0))
    assert err.value.constraint == "r2 > 0"
    with pytest.raises(MetricValidationError) as err:
        build_metric(MetricParams.make(t2="1/4", v="3/4"))
    assert err.value.constraint == "s2*t2 > |v|^2"


def test_det_scaled_direct_substitution():
    # frozen: 1 - 3/4 + 2 Re(i/8) = 1/4 at u = v = z = 1/2
    h = build_metric(MetricParams.make(u="1/2", v="1/2", z="1/2"))
    assert h.det_scaled == gr("1/4")


def test_det_scaled_matches_matrix_determinant(rng):
    # oracle: 8i det(Omega) computed from the explicit 3x3 determinant
    for _ in range(10):
        p = rand_metric(rng)
        om = ref_omega_matrix(p)
        det = (om[0][0] * (om[1][1] * om[2][2] - om[1][2] * om[2][1])
               - om[0][1] * (om[1][0] * om[2][2] - om[1][2] * om[2][0])
               + om[0][2] * (om[1][0] * om[2][1] - om[1][1] * om[2][0]))
        assert build_metric(p).det_scaled == gr(8) * I * det
        assert ref_determinant_scaled(p) == gr(8) * I * det


# The value route: Omega, det_scaled and the positivity tests in GaussianRational
# arithmetic, written independently of the integer construction in curvlab.metric.
_HALF = GaussianRational(Rat(1, 2))
_DET_NAME = "r2*s2*t2 + 2*Re(i*conj(u)*conj(v)*z) > t2*|u|^2 + r2*|v|^2 + s2*|z|^2"


def ref_omega_matrix(p):
    """The 3x3 coefficient matrix Omega with omega(phi_a, phi_bbar) = Omega[a][b]."""
    ih = I * _HALF
    return [
        [ih * gr(p.r2), _HALF * p.u, _HALF * p.z],
        [-_HALF * p.u.conjugate(), ih * gr(p.s2), _HALF * p.v],
        [-_HALF * p.z.conjugate(), -_HALF * p.v.conjugate(), ih * gr(p.t2)],
    ]


def ref_determinant_scaled(p):
    """8 i det(Omega) = r2 s2 t2 - r2|v|^2 - s2|z|^2 - t2|u|^2 + 2 Re(i conj(u) conj(v) z)."""
    triple = I * p.u.conjugate() * p.v.conjugate() * p.z
    return GaussianRational(p.r2 * p.s2 * p.t2 - p.r2 * p.v.abs2() - p.s2 * p.z.abs2()
                            - p.t2 * p.u.abs2() + 2 * triple.re)


def ref_constraint_failures(p):
    checks = ((p.r2 > 0, "r2 > 0"), (p.s2 > 0, "s2 > 0"), (p.t2 > 0, "t2 > 0"),
              (p.r2 * p.s2 > p.u.abs2(), "r2*s2 > |u|^2"),
              (p.r2 * p.t2 > p.z.abs2(), "r2*t2 > |z|^2"),
              (p.s2 * p.t2 > p.v.abs2(), "s2*t2 > |v|^2"),
              (ref_determinant_scaled(p).re > 0, _DET_NAME))
    return [name for ok, name in checks if not ok]


def ref_metric(p):
    """(g, omega) written entry by entry from Omega, with g(phi_a, phi_bbar) = -i Omega[a][b]."""
    om = ref_omega_matrix(p)
    g, omega = MultiTensor(2), MultiTensor(2)
    for a in range(3):
        for b in range(3):
            w = om[a][b]
            if w.is_zero():
                continue
            omega[a, b + 3] = w
            omega[b + 3, a] = -w
            g[a, b + 3] = g[b + 3, a] = -I * w
    return g, omega


def assert_matches_reference(p):
    bad = ref_constraint_failures(p)
    assert p.constraint_failures() == bad
    if bad:
        with pytest.raises(MetricValidationError) as err:
            build_metric(p)
        assert err.value.constraint == bad[0]
        return False
    h = build_metric(p)
    g, omega = ref_metric(p)
    for got, want in ((h.g, g), (h.g_inv, inverse(g)), (h.omega, omega)):
        assert got == want
        assert (got.re, got.im, got.den) == (want.re, want.im, want.den)
    assert type(h.det_scaled) is GaussianRational
    assert h.det_scaled == ref_determinant_scaled(p)
    return True


def test_integer_construction_matches_value_reference():
    rng = random.Random(31)
    dens = (1, 2, 3, 4, 5, 6, 7, 9, 11, 13)

    def q(lo, hi):
        return Rat(rng.randint(lo, hi), rng.choice(dens))

    def c():
        return GaussianRational(q(-2, 2), q(-2, 2)) if rng.random() < 0.8 else GaussianRational(0)

    valid = sum(assert_matches_reference(MetricParams(q(0, 9), q(0, 9), q(0, 9), c(), c(), c()))
                for _ in range(1200))
    assert valid > 300 and 1200 - valid > 300  # both sides of the positivity boundary


@pytest.mark.parametrize("kwargs, bad", [
    # det_scaled = 1 - 3/4 - 1/4 = 0 exactly while every 2x2 minor is 3/4
    (dict(u="1/2", v="1/2", z="1/2*i"), [_DET_NAME]),
    # the triple-product term flips sign with z: 1 - 3/4 + 1/4 = 1/2
    (dict(u="1/2", v="1/2", z="-1/2*i"), []),
    # r2 s2 = |u|^2 holds with equality, so the strict inequalities fail
    (dict(r2=1, s2=1, u=1), ["r2*s2 > |u|^2", _DET_NAME]),
    (dict(r2=-1), ["r2 > 0", "r2*s2 > |u|^2", "r2*t2 > |z|^2", _DET_NAME]),
    (dict(r2="2/7", s2="3/11", t2="5/13", u="1/13-1/7*i", v="1/7*i", z="1/11+1/13*i"), []),
])
def test_reference_boundary_cases(kwargs, bad):
    p = MetricParams.make(**kwargs)
    assert p.constraint_failures() == bad
    assert assert_matches_reference(p) == (not bad)


def test_metric_structure(rng):
    for _ in range(5):
        h = build_metric(rand_metric(rng))
        # pure-type blocks vanish; g symmetric; omega skew
        for i, j in all_indices(2):
            assert h.g[i, j] == h.g[j, i]
            assert h.omega[i, j] == -h.omega[j, i]
            if is_barred(i) == is_barred(j):
                assert h.g[i, j].is_zero()
        assert contract(h.g, h.g_inv, 1, 0) == identity_tensor()


def test_omega_g_compatibility(rng):
    # omega(x, y) = g(x, Jy) and J-invariance omega(Jx, Jy) = omega(x, y)
    for _ in range(5):
        h = build_metric(rand_metric(rng))
        for i, j in all_indices(2):
            assert h.omega[i, j] == h.g[i, j] * j_factor(j)
            assert j_factor(i) * j_factor(j) * h.omega[i, j] == h.omega[i, j]


def test_torsion_forms_torus(rng):
    h = build_metric(rand_metric(rng))
    t, c = torsion_forms(h, TORUS)
    assert t.is_zero() and c.is_zero()


def test_torsion_forms_iwasawa_oracle(rng):
    # oracle: T(x,y,z) = -d(omega)(Jx, Jy, Jz), C(x,y,z) = d(omega)(Jx, y, z)
    h = build_metric(rand_metric(rng))
    domega = exterior_d(h.omega, IWASAWA)
    t, c = torsion_forms(h, IWASAWA)
    assert not t.is_zero() and not c.is_zero()
    for idx in all_indices(3):  # T is fully skew: each permutation changes it by its sign
        for perm, sign in (((1, 0, 2), -1), ((0, 2, 1), -1), ((2, 1, 0), -1),
                           ((1, 2, 0), 1), ((2, 0, 1), 1)):
            assert t[tuple(idx[p] for p in perm)] == sign * t[idx]
    for idx in all_indices(3):
        jf = j_factor(idx[0]) * j_factor(idx[1]) * j_factor(idx[2])
        assert t[idx] == -(jf * domega[idx])
        assert c[idx] == j_factor(idx[0]) * domega[idx]


def test_torsion_forms_vanish_at_kahler_point():
    alg = instantiate(FamilySpec.make("Si", A="i"))
    h = build_metric(MetricParams.make(r2=2, s2=1, t2="3/2"))
    t, c = torsion_forms(h, alg)
    assert t.is_zero() and c.is_zero()


def test_classify_torus(rng):
    flags = classify_metric(build_metric(rand_metric(rng)), TORUS)
    assert (flags.kahler, flags.balanced, flags.pluriclosed) == (True, True, True)


def test_classify_h2_point():
    alg = instantiate(FamilySpec.make("Ni", rho=0, **{"lambda": 0}, D="i"))
    flags = classify_metric(build_metric(MetricParams.make()), alg)
    assert flags.pluriclosed and not flags.balanced and not flags.kahler


def test_classify_si_balanced():
    alg = instantiate(FamilySpec.make("Si", A="3/5+4/5*i"))
    flags = classify_metric(build_metric(MetricParams.make(u="1/3")), alg)
    assert flags.balanced and not flags.kahler


def test_classification_lattice_over_catalog(rng):
    # kahler implies balanced and pluriclosed; non-Kahler never both
    reps = [("Np", {"rho": 0}), ("Np", {"rho": 1}),
            ("Ni", {"rho": 0, "lambda": 0, "D": "i"}),
            ("Ni", {"rho": 1, "lambda": 1, "D": "1/3+1/5*i"}),
            ("Nii", {"rho": 1, "B": "1/2", "c": "1/3"}),
            ("Niii", {"rho": 0, "sign": 1}), ("Niii", {"rho": 1, "sign": -1}),
            ("Si", {"A": "i"}), ("Si", {"A": "1"}), ("Si", {"A": "3/5+4/5*i"}),
            ("Sii", {"x": "1/2"}),
            ("Siii1", {"sign": 1}), ("Siii2", {}), ("Siii3", {}), ("Siii4", {"sign": 1}),
            ("Siv1", {}), ("Siv2", {"x": 0}), ("Siv3", {"A": "2"}),
            ("Sv", {}), ("sl2c", {})]
    for fid, params in reps:
        alg = instantiate(FamilySpec.make(fid, **params))
        for _ in range(3):
            h = build_metric(rand_metric(rng))
            flags = classify_metric(h, alg)
            if flags.kahler:
                assert flags.balanced and flags.pluriclosed
            else:
                assert not (flags.balanced and flags.pluriclosed)
            # the torsion-form flags agree with the routes through omega
            assert balanced_via_omega_squared(h, alg) == flags.balanced
            assert pluriclosed_via_ddbar(h, alg) == flags.pluriclosed


def pluriclosed_via_ddbar(h, alg):
    """Independent pluriclosed test: del delbar omega = 0.

    del delbar omega is the (2,2) part of d applied to delbar omega, the entries
    of d omega with two barred indices.
    """
    domega = exterior_d(h.omega, alg)
    delbar = MultiTensor(3)
    for idx, v in domega.nonzero():
        if sum(is_barred(i) for i in idx) == 2:
            delbar[idx] = v
    return all(d_component(delbar, alg, tuple(sorted(ii + jj))).is_zero()
               for ii in itertools.combinations(UNBARRED, 2)
               for jj in itertools.combinations(BARRED, 2))
