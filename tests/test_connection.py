import pytest

from curvlab import connection, goldens
from curvlab.algebra import LieAlgebraCx
from curvlab.catalog import FamilySpec, instantiate
from curvlab.connection import (
    PRESETS,
    ConnectionSpec,
    christoffel,
    curvature,
    curvature_of,
    curvature_symmetry_failures,
    nabla_g_failures,
    nabla_j_failures,
    ricci_and_scalar,
    torsion_and_bianchi_defect,
)
from curvlab.metric import MetricParams, build_metric
from curvlab.scalars import GaussianRational, Rat, ZERO, gr
from curvlab.tensors import all_indices

from conftest import rand_metric

TORUS = LieAlgebraCx.from_dphi({})
IWASAWA = LieAlgebraCx.from_dphi({2: {(0, 1): gr(1)}})


def ni(rho, lam, d):
    return instantiate(FamilySpec.make("Ni", rho=rho, **{"lambda": lam}, D=d))


def test_presets():
    assert PRESETS["lc"] == (0, 0)
    assert PRESETS["chern"] == (0, Rat(1, 2))
    assert PRESETS["bismut"] == (Rat(1, 2), 0)
    assert PRESETS["anti-bismut"] == (Rat(-1, 2), 0)
    assert PRESETS["first-canonical"] == (Rat(1, 4), Rat(1, 4))
    assert PRESETS["minimal-gauduchon"] == (Rat(1, 6), Rat(1, 3))
    for name, (eps, rho) in PRESETS.items():
        spec = ConnectionSpec.preset(name)
        assert (spec.eps, spec.rho) == (eps, rho)
        if name not in ("lc", "anti-bismut"):
            assert spec.is_gauduchon


def test_gauduchon_line():
    for eps in (Rat(0), Rat(1, 6), Rat(1, 4), Rat(1, 3), Rat(1, 2), Rat(-3, 7)):
        spec = ConnectionSpec.gauduchon(eps)
        assert spec.eps + spec.rho == Rat(1, 2)
    assert ConnectionSpec.gauduchon(0).name == "chern"
    assert ConnectionSpec.gauduchon(Rat(1, 2)).name == "bismut"


def test_spec_parse():
    assert ConnectionSpec.parse("bismut") == ConnectionSpec.preset("bismut")
    assert ConnectionSpec.parse("minimal") == ConnectionSpec.preset("minimal-gauduchon")
    s = ConnectionSpec.parse("eps=1/6,rho=1/3")
    assert (s.eps, s.rho) == (Rat(1, 6), Rat(1, 3))
    s2 = ConnectionSpec.parse("eps=1/6")
    assert (s2.eps, s2.rho) == (Rat(1, 6), Rat(1, 3))
    with pytest.raises(ValueError):
        ConnectionSpec.parse("frobenius")
    with pytest.raises(ValueError):
        ConnectionSpec.parse("eps=1/6,bogus=1")
    with pytest.raises(ValueError, match="repeated key 'eps'"):
        ConnectionSpec.parse("eps=1/2,rho=1/2,eps=0")


def test_torus_christoffel_zero(rng):
    h = build_metric(rand_metric(rng))
    for name in PRESETS:
        assert christoffel(ConnectionSpec.preset(name), h, TORUS).gamma.is_zero()


def test_kahler_point_lc_equals_chern():
    alg = instantiate(FamilySpec.make("Si", A="i"))
    h = build_metric(MetricParams.make(r2=2, s2=1, t2="3/2"))
    lc = christoffel(ConnectionSpec.preset("lc"), h, alg)
    ch = christoffel(ConnectionSpec.preset("chern"), h, alg)
    assert lc.gamma == ch.gamma


def test_torus_flat(rng):
    h = build_metric(rand_metric(rng))
    for name in PRESETS:
        assert curvature_of(ConnectionSpec.preset(name), h, TORUS).tensor.is_zero()


def test_iwasawa_chern_flat(rng):
    for _ in range(3):
        h = build_metric(rand_metric(rng))
        assert curvature_of(ConnectionSpec.preset("chern"), h, IWASAWA).tensor.is_zero()


def test_ni_component_closed_form():
    # R[1,2,1,1b] = 2 t2 eps (1 - eps) rho on the normalized (Ni) metric; 1/2 at eps = 1/2
    alg = ni(1, 0, 0)
    h = build_metric(MetricParams.make(r2=1, s2=1, t2=1))
    for eps in (Rat(0), Rat(1, 6), Rat(1, 4), Rat(1, 2), Rat(2, 3)):
        r = curvature_of(ConnectionSpec.gauduchon(eps), h, alg)
        assert r.component(0, 1, 0, 3) == GaussianRational(2 * eps * (1 - eps))
    r = curvature_of(ConnectionSpec.preset("bismut"), h, alg)
    assert r.component(0, 1, 0, 3) == gr("1/2")


def test_h2_bismut_curvature():
    # the two nonzero components R[1,1b,1,1b] = R[2,2b,2,2b] = t2, rest zero
    alg = ni(0, 0, "i")
    for s2, t2 in ((Rat(1), Rat(1)), (Rat(2), Rat(3, 2))):
        h = build_metric(MetricParams.make(r2=1, s2=s2, t2=t2))
        r = curvature_of(ConnectionSpec.preset("bismut"), h, alg)
        assert r.component(0, 3, 0, 3) == GaussianRational(t2)
        assert r.component(1, 4, 1, 4) == GaussianRational(t2)
        skew_images = {(0, 3, 0, 3), (0, 3, 3, 0), (3, 0, 0, 3), (3, 0, 3, 0),
                       (1, 4, 1, 4), (1, 4, 4, 1), (4, 1, 1, 4), (4, 1, 4, 1)}
        assert all(idx in skew_images for idx, _ in r.tensor.nonzero())


def test_curvature_invariants_random(rng):
    alg = instantiate(FamilySpec.make("Sii", x="1/2"))
    h = build_metric(rand_metric(rng))
    for name in ("lc", "chern", "bismut", "first-canonical", "anti-bismut"):
        spec = ConnectionSpec.preset(name)
        table = christoffel(spec, h, alg)
        curv = curvature(table, h, alg)
        assert not curvature_symmetry_failures(curv, check_symm=spec.is_lc)
        assert not nabla_g_failures(table)
        if spec.is_gauduchon:
            assert not nabla_j_failures(table)


def test_ricci_torus(rng):
    h = build_metric(rand_metric(rng))
    rd = ricci_and_scalar(curvature_of(ConnectionSpec.preset("chern"), h, TORUS), h)
    assert rd.ric1.is_zero() and rd.ric2.is_zero() and rd.ric_lc.is_zero()
    assert rd.scal.is_zero()


def test_ricci_g20_kahler_lc_flat():
    alg = instantiate(FamilySpec.make("Si", A="i"))
    h = build_metric(MetricParams.make(r2=2, s2=1, t2="3/2"))
    curv = curvature_of(ConnectionSpec.preset("lc"), h, alg)
    assert curv.tensor.is_zero()
    rd = ricci_and_scalar(curv, h)
    assert rd.ric_lc.is_zero()


def test_ricci_traces_consistent(rng):
    # scal computed from ric1 must agree with the trace of ric2 (independent loop)
    alg = ni(0, 0, "i")
    h = build_metric(MetricParams.make(r2=1, s2=2, t2="3/2"))
    curv = curvature_of(ConnectionSpec.preset("bismut"), h, alg)
    rd = ricci_and_scalar(curv, h)
    scal_from_ric2 = ZERO
    for k in range(3):
        for l in range(3):
            scal_from_ric2 = scal_from_ric2 + rd.ric2[k, l + 3] * h.g_inv[l + 3, k]
    assert rd.scal == scal_from_ric2
    # h_2 case: scal assembled from the two published components
    expected = ZERO
    for i in range(3):
        for j in range(3):
            for k in range(3):
                for l in range(3):
                    v = curv.tensor[i, j + 3, k, l + 3]
                    if not v.is_zero():
                        expected = expected + v * h.g_inv[j + 3, i] * h.g_inv[l + 3, k]
    assert rd.scal == expected


def test_ric_lc_symmetric_for_lc(rng):
    alg = instantiate(FamilySpec.make("Sv"))
    h = build_metric(rand_metric(rng))
    rd = ricci_and_scalar(curvature_of(ConnectionSpec.preset("lc"), h, alg), h)
    for i, j in all_indices(2):
        assert rd.ric_lc[i, j] == rd.ric_lc[j, i]


def test_lc_torsion_free_and_first_bianchi(rng):
    alg = instantiate(FamilySpec.make("Niii", rho=1, sign=-1))
    h = build_metric(rand_metric(rng))
    torsion, defect = torsion_and_bianchi_defect(ConnectionSpec.preset("lc"), h, alg)
    assert torsion.is_zero()
    assert defect.is_zero()


def test_bianchi_defect_with_torsion(rng):
    # Chern on the parallelizable family: torsion nonzero, defect exactly zero
    h = build_metric(rand_metric(rng))
    torsion, defect = torsion_and_bianchi_defect(ConnectionSpec.preset("chern"), h, IWASAWA)
    assert not torsion.is_zero()
    assert defect.is_zero()
    # Bismut on the h2 point
    alg = ni(0, 0, "i")
    h2 = build_metric(MetricParams.make(r2=1, s2=1, t2=2))
    _, defect2 = torsion_and_bianchi_defect(ConnectionSpec.preset("bismut"), h2, alg)
    assert defect2.is_zero()


def test_bianchi_sides_oracle(rng):
    # independent evaluation of both sides of the identity for one configuration
    alg = instantiate(FamilySpec.make("Sii", x="1/3"))
    h = build_metric(rand_metric(rng))
    spec = ConnectionSpec.preset("first-canonical")
    table = christoffel(spec, h, alg)
    gm = table.gamma
    c = alg.c

    def rop(i, hh, k, a):
        acc = ZERO
        for b in range(6):
            acc = acc + gm[hh, k, b] * gm[i, b, a] - gm[i, k, b] * gm[hh, b, a] \
                - c[i, hh, b] * gm[b, k, a]
        return acc

    def tn(i, hh, k):
        return gm[i, hh, k] - gm[hh, i, k] - c[i, hh, k]

    def dnabla_t(i, hh, k, a):
        acc = ZERO
        for (x, y, z) in ((i, hh, k), (hh, k, i), (k, i, hh)):
            for m in range(6):
                acc = acc + tn(y, z, m) * gm[x, m, a] - c[x, y, m] * tn(m, z, a)
        return acc

    for idx in [(0, 1, 2, 3), (0, 4, 2, 1), (3, 1, 5, 0), (2, 4, 5, 5)]:
        i, hh, k, a = idx
        cyc = rop(i, hh, k, a) + rop(hh, k, i, a) + rop(k, i, hh, a)
        assert cyc == dnabla_t(i, hh, k, a)


def test_symmetry_check_names_exactly_the_corrupted_pairs(rng):
    """1/7 added to one entry of a generic curvature breaks exactly the skew and
    reality pairs that entry belongs to, in lexicographic order."""
    alg = instantiate(FamilySpec.make("Nii", rho=1, B="1/2-1/3*i", c="2/3"))
    h = build_metric(rand_metric(rng))
    curv = curvature_of(ConnectionSpec.preset("chern"), h, alg)
    e, swap12, swap34, conj = (0, 3, 1, 4), (3, 0, 1, 4), (0, 3, 4, 1), (3, 0, 4, 1)
    assert all(not curv.tensor[idx].is_zero() for idx in (e, swap12, swap34, conj))
    assert not curvature_symmetry_failures(curv)

    tensor = curv.tensor.copy()
    assert curv.tensor.den % 7  # so the write below rescales every other entry
    tensor[e] = tensor[e] + GaussianRational(Rat(1, 7))
    bad = curvature_symmetry_failures(connection.CurvatureTensor(curv.spec, tensor))
    assert bad == [("skew12", e), ("skew34", e), ("reality", e), ("skew34", swap34),
                   ("skew12", swap12), ("reality", conj)]
    tensor[e] = curv.tensor[e]
    assert tensor == curv.tensor


def test_oracles_catch_a_flipped_structure_term(monkeypatch, rng):
    """The Bianchi defect and the goldens both fail on an operator whose
    c_{IH}^B Gamma_{BK}^A term has the wrong sign."""
    alg = instantiate(FamilySpec.make("Nii", rho=1, B="1/2-1/3*i", c="2/3"))
    h = build_metric(rand_metric(rng))
    chern = ConnectionSpec.preset("chern")
    case = goldens.OracleCase(
        "Ni", FamilySpec.make("Ni", rho=1, **{"lambda": "1/2"}, D="1/3+2/5*i"),
        MetricParams.make(r2=1, s2=2, t2="3/2", u="1/5+1/3*i"), Rat(1, 4))
    assert torsion_and_bianchi_defect(chern, h, alg)[1].is_zero()
    assert all(ok for *_, ok in goldens.compare_components(case))

    operator = connection._operator

    def flipped(gamma, c):
        return operator(gamma, -c)

    monkeypatch.setattr(connection, "_operator", flipped)
    assert not torsion_and_bianchi_defect(chern, h, alg)[1].is_zero()
    assert not all(ok for *_, ok in goldens.compare_components(case))


def test_closed_form_pins_other_families():
    """Exact component values on families outside the golden tables.

    These guard the structure-equation transcriptions of (Nii), (Siv2),
    and (Sv) against independently derived closed forms.
    """
    def b_comp(r, i, j, k, l):
        return r.tensor[i - 1, j + 2, k - 1, l + 2] - r.tensor[k - 1, j + 2, i - 1, l + 2]

    # (Nii): two Bianchi components with det prefactor 4i det(Omega) = det_scaled / 2
    for rho, b_par, c_par in ((1, "1/2-1/3*i", "2/3"), (0, "1/2", "1")):
        alg = instantiate(FamilySpec.make("Nii", rho=rho, B=b_par, c=c_par))
        p = MetricParams.make(r2=2, s2=1, t2="3/2", u="1/5", v="1/6*i", z="1/7")
        h = build_metric(p)
        det2 = GaussianRational(h.det_scaled.re / 2)
        b2 = gr(b_par).abs2()
        pref = GaussianRational(p.t2 * p.t2 * (p.s2 * p.t2 - p.v.abs2()))
        for eps in (Rat(1, 6), Rat(1, 4), Rat(1, 2)):
            r = curvature_of(ConnectionSpec.gauduchon(eps), h, alg)
            want = -(pref / det2) * GaussianRational(
                eps * eps * rho * rho - 2 * b2 * (eps - Rat(1, 2)) * (eps - Rat(1, 4)))
            assert b_comp(r, 3, 2, 2, 3) == want
            want = (GaussianRational(eps) * pref / det2) * (
                GaussianRational(eps) * gr(c_par) * gr(c_par)
                - GaussianRational(2 * b2 * (eps - Rat(1, 4))))
            assert b_comp(r, 3, 3, 2, 2) == want

    # (Siv2): R[1,2,3,2b] with prefactor 2 det(Omega) = -i det_scaled / 4
    for x in (0, 1):
        alg = instantiate(FamilySpec.make("Siv2", x=x))
        p = MetricParams.make(r2=2, s2=1, t2="3/2", u="1/4+1/5*i", v="1/6", z="1/7*i")
        h = build_metric(p)
        two_det = GaussianRational(0, Rat(-1, 4)) * h.det_scaled
        u2 = p.u.abs2()
        rs = p.r2 * p.s2
        for eps in (Rat(1, 6), Rat(1, 2)):
            r = curvature_of(ConnectionSpec.gauduchon(eps), h, alg)
            want = -(GaussianRational(eps * eps) * GaussianRational(rs - u2)
                     * (GaussianRational(rs) - GaussianRational(0, 2 * x) * GaussianRational(p.s2) * p.u
                        + GaussianRational(u2))) / two_det
            assert r.tensor[0, 1, 2, 4] == want

    # (Sv) at eps = 1/2 with v = z = 0: R[1,2,3,1b] = -(r2 s2 - |u|^2) / (4 t2)
    alg = instantiate(FamilySpec.make("Sv"))
    p = MetricParams.make(r2=2, s2=1, t2="3/2", u="1/4+1/5*i")
    h = build_metric(p)
    r = curvature_of(ConnectionSpec.preset("bismut"), h, alg)
    assert r.tensor[0, 1, 2, 3] == GaussianRational(-(p.r2 * p.s2 - p.u.abs2()) / (4 * p.t2))
