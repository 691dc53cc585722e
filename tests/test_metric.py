import itertools

import pytest

from curvlab.algebra import LieAlgebraCx, d_component, exterior_d
from curvlab.catalog import FamilySpec, instantiate
from curvlab.metric import (
    MetricParams,
    MetricValidationError,
    balanced_via_omega_squared,
    build_metric,
    classify_metric,
    determinant_scaled,
    j_factor,
    torsion_forms,
)
from curvlab.scalars import I, gr
from curvlab.tensors import (
    BARRED,
    UNBARRED,
    MultiTensor,
    all_indices,
    contract,
    identity_tensor,
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
    p = MetricParams.make(u="1/2", v="1/2", z="1/2")
    assert determinant_scaled(p) == gr("1/4")
    h = build_metric(p)
    assert h.det_scaled == gr("1/4")


def test_det_scaled_matches_matrix_determinant(rng):
    # oracle: 8i det(Omega) computed from the explicit 3x3 determinant
    for _ in range(10):
        p = rand_metric(rng)
        om = [[I * gr(p.r2) * gr("1/2"), p.u * gr("1/2"), p.z * gr("1/2")],
              [-p.u.conjugate() * gr("1/2"), I * gr(p.s2) * gr("1/2"), p.v * gr("1/2")],
              [-p.z.conjugate() * gr("1/2"), -p.v.conjugate() * gr("1/2"), I * gr(p.t2) * gr("1/2")]]
        det = (om[0][0] * (om[1][1] * om[2][2] - om[1][2] * om[2][1])
               - om[0][1] * (om[1][0] * om[2][2] - om[1][2] * om[2][0])
               + om[0][2] * (om[1][0] * om[2][1] - om[1][1] * om[2][0]))
        assert determinant_scaled(p) == gr(8) * I * det


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
