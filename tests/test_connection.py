import collections
import copy
import dataclasses
import itertools
import pickle
import random
from math import lcm

import numpy as np
import pytest

from curvlab import algebra, connection, flow, goldens, metric, tensors, verify
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
from curvlab.metric import MetricParams, build_metric, classify_metric
from curvlab.scalars import GaussianRational, Rat, ZERO, gr
from curvlab.tensors import (
    MultiTensor,
    all_indices,
    bar,
    contract,
    flat_offset,
    identity_tensor,
    inverse,
    is_barred,
    numerator_value,
)

from conftest import rand_metric
from wedge_forms import perm_sign

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


def test_spec_predicates_are_computed_once_and_pickle_as_before():
    """is_gauduchon and is_lc are cached on the frozen spec: their values are the
    Fraction tests, a second read does not recompute them, and equality, hashing and
    the pickled bytes do not depend on whether they were read."""
    specs = [ConnectionSpec.preset(name) for name in PRESETS]
    specs += [ConnectionSpec.gauduchon(Rat(-3, 7)), ConnectionSpec(Rat(1, 3), Rat(1, 3))]
    for spec in specs:
        twin = ConnectionSpec(spec.eps, spec.rho, spec.name)
        pickled = pickle.dumps(twin)
        assert spec.is_gauduchon == (spec.eps + spec.rho == Rat(1, 2))
        assert spec.is_lc == (spec.eps == 0 and spec.rho == 0)
        assert {"is_gauduchon", "is_lc"} <= set(vars(spec))
        assert spec == twin and hash(spec) == hash(twin) and repr(spec) == repr(twin)
        assert pickle.dumps(spec) == pickled
        back = pickle.loads(pickled)
        assert back == spec and (back.is_gauduchon, back.is_lc) == (spec.is_gauduchon, spec.is_lc)
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.eps = Rat(0)


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


# per flat offset n of (I, H, K, L): n, the index tuple, and the offsets of its partners
# (H, I, K, L) for skew12, (I, H, L, K) for skew34, (bar I, bar H, bar K, bar L) for
# reality and (K, L, I, H) for (Symm), from the offset arithmetic
REF_PARTNERS = tuple(
    (n, (i, hh, k, l), 216 * hh + 36 * i + 6 * k + l, 216 * i + 36 * hh + 6 * l + k,
     216 * bar(i) + 36 * bar(hh) + 6 * bar(k) + bar(l), 216 * k + 36 * l + 6 * i + hh)
    for n, (i, hh, k, l) in enumerate(itertools.product(range(6), repeat=4)))


def test_partner_table_matches_the_offset_arithmetic():
    """Each flat offset's skew12, skew34, conjugate and (Symm) partners in the masks'
    index arrays, as the checks computed them per entry; the nabla g partner of
    (I, H, L) is (I, L, H), and nabla J tests the entries of mixed type in (H, K)."""
    assert connection._CURVATURE_PARTNERS.T.tolist() == [list(p[2:]) for p in REF_PARTNERS]
    assert connection._KINDS == ("skew12", "skew34", "reality", "symm")
    assert connection._NABLA_G_PARTNERS.tolist() == [
        [36 * i + 6 * l + hh for i, hh, l in all_indices(3)]]
    assert connection._MIXED.tolist() == [
        is_barred(hh) != is_barred(k) for _, hh, k in all_indices(3)]


def ref_curvature_symmetry_failures(curv, check_symm=False):
    """The curvature checks as a loop over the stored numerator lists and REF_PARTNERS."""
    r = curv.tensor
    re, im = r.re, r.im
    bad = []
    for n, idx, m12, m34, mbar, msymm in REF_PARTNERS:
        a, b = re[n], im[n]
        if not (a or b):
            continue
        if re[m12] != -a or im[m12] != -b:
            bad.append(("skew12", idx))
        if re[m34] != -a or im[m34] != -b:
            bad.append(("skew34", idx))
        if re[mbar] != a or im[mbar] != -b:
            bad.append(("reality", idx))
        if check_symm and (re[msymm] != a or im[msymm] != b):
            bad.append(("symm", idx))
    return bad


def ref_nabla_g_failures(table):
    """Metric compatibility as a loop over the lowered symbols' nonzero entries."""
    low = table.lowered
    re, im = low.re, low.im
    return [idx for n, idx in low.nonzero_offsets()
            if re[36 * idx[0] + 6 * idx[2] + idx[1]] != -re[n]
            or im[36 * idx[0] + 6 * idx[2] + idx[1]] != -im[n]]


def ref_nabla_j_failures(table):
    """Type preservation as a loop over the raised symbols' nonzero entries."""
    return [idx for _, idx in table.gamma.nonzero_offsets()
            if is_barred(idx[1]) != is_barred(idx[2])]


def _bumped(t, n):
    """A copy of t with the real numerator at flat offset n raised by 1."""
    re = list(t.re)
    re[n] += 1
    return MultiTensor.from_numerators(t.rank, re, list(t.im), t.den)


def _table_on(spec, plane):
    """The ChristoffelTable of spec on plane: the symbols of its one-spec stacked pass."""
    low, gamma, _ = connection._stacked_pass([spec], plane)
    return connection.ChristoffelTable(spec, *tensors._tensors(3, *gamma),
                                       *tensors._tensors(3, *low))


def _check_mismatches(curv, table):
    """Which mask checks' full failure lists on (curv, table) differ from their list
    loops, numbered 0 and 1 for the curvature checks without and with (Symm), 2 for
    nabla g and 3 for nabla J; also returns the loops' four lists."""
    pairs = [(curvature_symmetry_failures(curv, symm), ref_curvature_symmetry_failures(curv, symm))
             for symm in (False, True)]
    pairs += [(nabla_g_failures(table), ref_nabla_g_failures(table)),
              (nabla_j_failures(table), ref_nabla_j_failures(table))]
    return [k for k, (got, want) in enumerate(pairs) if got != want], [w for _, w in pairs]


def test_structural_checks_match_the_list_loop_references(monkeypatch):
    """The mask checks give the full failure lists of the list loops: on the reference
    grid, where nothing fails, and on corrupted copies, where something does: a
    curvature with one numerator bumped at a lower-half (I > H) offset or at the (Symm)
    partner of its first nonzero entry, lowered symbols with one bumped numerator,
    symbols built on a plane with a negated T, and curvatures whose lower-half block
    (1b, 1) is read with the wrong sign.  Also on object arrays (the large grid) and
    on an int64 array holding -2^63, whose negation int64 cannot hold, at an entry
    and its skew partner."""
    lower, failing, checked = 216 * 4 + 36 * 1 + 6 * 2 + 5, 0, 0
    for label, alg, h, specs in reference_grid("checks"):
        negated = _negated_t_plane(h, alg)
        for spec in specs:
            where = (label, spec.label())
            table = christoffel(spec, h, alg)
            curv = curvature(table, h, alg)
            first = next((n for n, _ in curv.tensor.nonzero_offsets()), 0)
            cases = [(curv, table),
                     (connection.CurvatureTensor(spec, _bumped(curv.tensor, lower)), table),
                     (connection.CurvatureTensor(spec, _bumped(curv.tensor,
                                                               REF_PARTNERS[first][5])), table),
                     (curv, connection.ChristoffelTable(spec, table.gamma,
                                                        _bumped(table.lowered, 6 * 4 + 1))),
                     (curv, _table_on(spec, negated))]
            wants = []
            for c, t in cases:
                bad, want = _check_mismatches(c, t)
                assert bad == [], where
                wants.append(want)
                checked += 1
            clean = wants[0]
            assert not clean[1 if spec.is_lc else 0] and not clean[2], where
            assert not (spec.is_gauduchon and clean[3]), where
            assert wants[1][0] and wants[2][1] and wants[3][2], where
            failing += spec.is_gauduchon and bool(wants[4][3])
    assert checked == 21 * 2 * 8 * 5 and failing > 0
    table = connection._EXPAND[:]
    table[6 * 3 + 0] = table[6 * 0 + 3]
    monkeypatch.setattr(connection, "_EXPAND", table)
    failing = 0
    for label, alg, h, specs in itertools.islice(reference_grid("checks"), 0, None, 3):
        for spec in specs:
            t = christoffel(spec, h, alg)
            bad, want = _check_mismatches(curvature(t, h, alg), t)
            assert bad == [], (label, spec.label())
            failing += bool(want[0])
    assert failing > 0
    monkeypatch.undo()
    on_object = 0
    for label, alg, h, specs in itertools.islice(large_grid(), 0, None, 4):
        for spec in specs:
            t = christoffel(spec, h, alg)
            curv = curvature(t, h, alg)
            on_object += tensors._stack((curv.tensor,))[0].dtype == object
            assert _check_mismatches(curv, t)[0] == [], (label, spec.label())
    assert on_object > 0
    label, alg, h, specs = next(reference_grid("checks"))
    t = christoffel(specs[0], h, alg)
    edge = curvature(t, h, alg).tensor
    re = list(edge.re)
    re[36 * 1 + 6 * 2 + 3] = re[216 * 1 + 6 * 2 + 3] = -2 ** 63  # (1,2,3,1b), (2,1,3,1b)
    edge = MultiTensor.from_numerators(4, re, list(edge.im), edge.den)
    # -2^63 has no int64 negation, so the stored tensor keeps it on object
    assert tensors._stack((edge,))[0].dtype == object
    bad, want = _check_mismatches(connection.CurvatureTensor(specs[0], edge), t)
    assert bad == [] and ("skew12", (0, 1, 2, 3)) in want[0]


def test_bianchi_tables_match_the_permutation_signs():
    """The torsion swap, each sorted triple's three half rows, and the fill of each
    defect block from its sorted triple's sum with the sign of the sorting, against
    the offset arithmetic, itertools.permutations and perm_sign."""
    assert connection._SWAP.tolist() == [36 * hh + 6 * i + k for i, hh, k in all_indices(3)]
    triples = list(itertools.combinations(range(6), 3))
    pair = connection._PAIR
    assert connection._HALF_ROWS.tolist() == [
        [6 * pair[i, hh] + k, 6 * pair[hh, k] + i, 6 * pair[i, k] + hh] for i, hh, k in triples]
    fill = [2 * len(triples)] * 216
    for t, triple in enumerate(triples):
        for p in itertools.permutations(range(3)):
            x, y, z = (triple[a] for a in p)
            fill[36 * x + 6 * y + z] = t if perm_sign(p) > 0 else len(triples) + t
    assert connection._FILL.tolist() == fill


def test_oracles_catch_a_flipped_structure_term(monkeypatch, rng):
    """The Bianchi defect and the goldens both fail on an operator whose
    c_{IH}^B Gamma_{BK}^A term has the wrong sign, and the seed-0 scoreboard bytes
    move (only its witness values: every verdict still passes)."""
    alg = instantiate(FamilySpec.make("Nii", rho=1, B="1/2-1/3*i", c="2/3"))
    h = build_metric(rand_metric(rng))
    chern = ConnectionSpec.preset("chern")
    case = ("Ni", FamilySpec.make("Ni", rho=1, **{"lambda": "1/2"}, D="1/3+2/5*i"),
            MetricParams.make(r2=1, s2=2, t2="3/2", u="1/5+1/3*i"), (Rat(1, 4),))
    assert torsion_and_bianchi_defect(chern, h, alg)[1].is_zero()
    assert all(ok for *_, ok in goldens.compare_components(*case))
    plan = verify.SamplePlan(seed=0, points_per_case=1)
    board = verify.theorem_suite(plan, threads=1).to_json()

    operator = connection._operator

    def flipped(over, x):
        zg, zc, dens, bounds = over
        return operator((zg, -zc, dens, bounds), x)

    monkeypatch.setattr(connection, "_operator", flipped)
    assert not torsion_and_bianchi_defect(chern, h, alg)[1].is_zero()
    assert not all(ok for *_, ok in goldens.compare_components(*case))
    assert verify.theorem_suite(plan, threads=1).to_json() != board


def _common(s, t):
    """Two tensors rescaled to one denominator, the lcm of theirs."""
    den = lcm(s.den, t.den)
    fs, ft = den // s.den, den // t.den
    return (MultiTensor.from_numerators(s.rank, [fs * a for a in s.re], [fs * b for b in s.im],
                                        den),
            MultiTensor.from_numerators(t.rank, [ft * a for a in t.re], [ft * b for b in t.im],
                                        den))


def _rows(t):
    """Sparse rows over the last slot: rows[n // 6] lists (n % 6, re, im) per nonzero n."""
    rows = [[] for _ in range(len(t.re) // 6)]
    for n, (a, b) in enumerate(zip(t.re, t.im)):
        if a or b:
            rows[n // 6].append((n % 6, a, b))
    return rows


def ref_operator(gamma, c, x):
    """R(I,H)K^X = Gamma_{HK}^B X_{IB} - Gamma_{IK}^B X_{HB} - c_{IH}^B X_{BK} over (I, H, K, X).

    The full rank-4 operator as a reference for the kernel's I < H half:
    evaluated for I < H and every entry of the 1296 filled in by skewness in
    (I, H), over the denominator of the (gamma, c) pair times x's.
    """
    gamma, c = _common(gamma, c)
    rows = _rows(gamma)
    xrows = _rows(x)
    crows = _rows(c)
    re = [0] * 6 ** 4
    im = [0] * 6 ** 4
    for i in range(6):
        for hh in range(i + 1, 6):
            crow = crows[6 * i + hh]
            for k in range(6):
                ar, ai = [0] * 6, [0] * 6
                for first, second, s in ((6 * hh + k, 6 * i, 1), (6 * i + k, 6 * hh, -1)):
                    for b, xr, xi in rows[first]:
                        for a, yr, yi in xrows[second + b]:
                            ar[a] += s * (xr * yr - xi * yi)
                            ai[a] += s * (xr * yi + xi * yr)
                for b, xr, xi in crow:
                    for a, yr, yi in xrows[6 * b + k]:
                        ar[a] -= xr * yr - xi * yi
                        ai[a] -= xr * yi + xi * yr
                up = 216 * i + 36 * hh + 6 * k
                down = 216 * hh + 36 * i + 6 * k
                for a in range(6):
                    re[up + a], im[up + a] = ar[a], ai[a]
                    re[down + a], im[down + a] = -ar[a], -ai[a]
    return MultiTensor.from_numerators(4, re, im, gamma.den * x.den)


def ref_defect(spec, h, alg):
    """The torsion and the Bianchi defect, with the curvature side read off ref_operator."""
    table = christoffel(spec, h, alg)
    gamma, c = _common(table.gamma, alg.c)
    gre, gim, cre, cim, den = gamma.re, gamma.im, c.re, c.im, gamma.den
    swap = [36 * hh + 6 * i + k for i, hh, k in all_indices(3)]
    torsion = MultiTensor.from_numerators(
        3, [gre[n] - gre[m] - cre[n] for n, m in enumerate(swap)],
        [gim[n] - gim[m] - cim[n] for n, m in enumerate(swap)], den)
    rop = ref_operator(gamma, c, gamma)
    trows, grows, crows = _rows(torsion), _rows(gamma), _rows(c)
    dre = [0] * 6 ** 4
    dim = [0] * 6 ** 4
    for i, hh, k in itertools.combinations(range(6), 3):
        ar, ai = [0] * 6, [0] * 6
        for x, y, zz in ((i, hh, k), (hh, k, i), (k, i, hh)):
            base = 216 * x + 36 * y + 6 * zz
            for a in range(6):
                ar[a] += rop.re[base + a]
                ai[a] += rop.im[base + a]
            for m, tr, ti in trows[6 * y + zz]:
                for a, gr_, gi in grows[6 * x + m]:
                    ar[a] -= tr * gr_ - ti * gi
                    ai[a] -= tr * gi + ti * gr_
            for m, cr, ci in crows[6 * x + y]:
                for a, tr, ti in trows[6 * m + zz]:
                    ar[a] += cr * tr - ci * ti
                    ai[a] += cr * ti + ci * tr
        for (x, y, zz), s in zip(itertools.permutations((i, hh, k)), (1, -1, -1, 1, 1, -1)):
            base = 216 * x + 36 * y + 6 * zz
            for a in range(6):
                dre[base + a], dim[base + a] = s * ar[a], s * ai[a]
    return torsion, MultiTensor.from_numerators(4, dre, dim, den * den)


def ref_exact_lc_ricci(g, alg):
    """The exact Ricci of the rank-2 metric tensor g as the trace sum_A R(A,H)K^A of the
    full reference operator, a rank-2 tensor."""
    _, gamma = connection._symbols((connection._lc_sum(alg.c, g),), [(Rat(1, 2),)], inverse(g))
    (gamma,) = tensors._tensors(3, *gamma)
    rop = ref_operator(gamma, alg.c, gamma)
    # entry (A, H, K, A) of the operator sits at 216 A + 6 (6 H + K) + A
    re = [sum(rop.re[217 * a + 6 * n] for a in range(6)) for n in range(36)]
    im = [sum(rop.im[217 * a + 6 * n] for a in range(6)) for n in range(36)]
    return MultiTensor.from_numerators(2, re, im, rop.den)


def reference_grid(tag):
    """(label, alg, h, specs) over the sweep's 21 structures x 2 seeded metrics, with
    specs the 6 presets + 2 seeded Gauduchon eps of the structure; tag seeds the draws."""
    for family_id, params in verify._SWEEP_STRUCTURES:
        rng = random.Random(f"{tag}:{family_id}:{sorted(params.items())!r}")
        alg = instantiate(FamilySpec.make(family_id, **params))
        specs = [ConnectionSpec.preset(name) for name in PRESETS]
        specs += [ConnectionSpec.gauduchon(Rat(rng.randint(-12, 12), rng.randint(1, 8)))
                  for _ in range(2)]
        for _ in range(2):
            yield (family_id, params), alg, build_metric(verify.sample_metric(rng)), specs


def _numerators(t):
    return list(t.re), list(t.im), t.den


def operator_half(gamma, c, x):
    """(re, im, den) of the kernel's I < H half for one (gamma, x): the one-spec stack."""
    over = connection._over_c(tensors._stack((gamma,)), c)
    half, (den,) = connection._operator(over, tensors._stack((x,)))
    re, im = half[:, 0]
    return re, im, den


def _raise_then_lower(table, h, alg):
    """The stored curvature by the raised route: the raised operator lowered with -g."""
    raised = ref_operator(table.gamma, alg.c, table.gamma)
    return (-contract(raised, h.g, 3, 0)).reduced()


def test_curvature_matches_raise_then_lower_reference():
    """Read off the lowered symbols, the stored curvature has exactly the numerators
    and denominator of the raised operator lowered by -g, over the sweep's 21
    structures x (6 presets + 2 seeded Gauduchon eps) x 2 seeded metrics."""
    checked = 0
    for label, alg, h, specs in reference_grid("reference"):
        for spec in specs:
            table = christoffel(spec, h, alg)
            got, want = curvature(table, h, alg).tensor, _raise_then_lower(table, h, alg)
            assert _numerators(got) == _numerators(want), (label, spec.label())
            checked += 1
    assert checked == 21 * 8 * 2


def test_operator_half_expands_to_the_full_reference():
    """The kernel's I < H half, expanded through the stored tensor's table, is the
    negated full reference operator entry for entry, over the same denominator,
    for x = the lowered and x = the raised symbols on the reference grid."""
    checked = 0
    for label, alg, h, specs in reference_grid("operator"):
        for spec in specs:
            table = christoffel(spec, h, alg)
            for x in (table.lowered, table.gamma):
                re, im, den = operator_half(table.gamma, alg.c, x)
                assert len(re) == len(im) == 15 * 36
                want = ref_operator(table.gamma, alg.c, x)
                got = ([-a for a in connection._stored(re)],
                       [-b for b in connection._stored(im)], den)
                assert got == _numerators(want), (label, spec.label())
                checked += 1
    assert checked == 21 * 8 * 2 * 2


def _non_jacobi_bracket(rng):
    """A skew, conjugation-real bracket with random entries: no Lie algebra, so the
    torsion Bianchi defect of its connections is not zero."""
    return LieAlgebraCx.from_structure_constants(
        {(i, hh, k): GaussianRational(Rat(rng.randint(-5, 5), rng.randint(1, 4)),
                                      Rat(rng.randint(-5, 5), rng.randint(1, 4)))
         for i, hh, k in [(0, 1, 2), (0, 2, 4), (1, 3, 0), (2, 5, 1)]})


def test_bianchi_defect_matches_the_reference():
    """torsion_and_bianchi_defect, read off the kernel's half rows, equals the defect
    built on ref_operator in numerators and denominator: on the reference grid, where
    it vanishes, and on brackets that fail Jacobi, where it does not."""
    checked = 0
    for label, alg, h, specs in reference_grid("defect"):
        for spec in specs:
            got, want = torsion_and_bianchi_defect(spec, h, alg), ref_defect(spec, h, alg)
            assert [_numerators(t) for t in got] == [_numerators(t) for t in want], \
                (label, spec.label())
            checked += 1
    assert checked == 21 * 8 * 2
    rng = random.Random("defect:non-jacobi")
    for _ in range(3):
        alg, h = _non_jacobi_bracket(rng), build_metric(verify.sample_metric(rng))
        for name in PRESETS:
            spec = ConnectionSpec.preset(name)
            got, want = torsion_and_bianchi_defect(spec, h, alg), ref_defect(spec, h, alg)
            assert not want[1].is_zero()
            assert [_numerators(t) for t in got] == [_numerators(t) for t in want], name


# -- the kernel's dtypes ------------------------------------------------------------


@pytest.fixture
def dtypes(monkeypatch):
    """(terms, dtype) per dtype choice of a kernel stage, in call order: one per
    product (tensors._cmatmul) and one per scaling (tensors._scaled_each, which
    _over_c calls twice, for c and for the symbols, to store them over one
    denominator); terms tells the stages apart (at most 3 for the lowered sums, 8 for
    _over_c, 36 for the operator half, 324 for the Bianchi defect, 12 for contract and
    the raise, 72 for the Ricci and Lee traces, 18 for scal and 216 for the flow's
    exact Ricci).  Only tensors calls the chooser, so only tensors is patched."""
    chosen = []
    choose = tensors._dtype

    def spy(product_bits, terms):
        chosen.append((terms, choose(product_bits, terms)))
        return chosen[-1][1]

    monkeypatch.setattr(tensors, "_dtype", spy)
    return chosen


def _large_metric(rng):
    """Metric parameters whose every coordinate (r2, s2, t2 and the parts of u, v, z)
    has a numerator of at least 2^40, drawn until positivity holds."""
    while True:
        r2, s2, t2 = (Rat(rng.randint(2 ** 44, 2 ** 45), rng.randint(1, 7)) for _ in range(3))
        u, v, z = (GaussianRational(Rat(rng.randint(2 ** 40, 2 ** 41), rng.randint(1, 7)),
                                    Rat(-rng.randint(2 ** 40, 2 ** 41), rng.randint(1, 7)))
                   for _ in range(3))
        p = MetricParams(r2, s2, t2, u, v, z)
        if not p.constraint_failures():
            return p


def large_grid():
    """(label, alg, h, specs) over the sweep's 21 structures x 1 seeded large metric, with
    specs Levi-Civita, Chern, Bismut and 1 seeded Gauduchon eps."""
    for family_id, params in verify._SWEEP_STRUCTURES:
        rng = random.Random(f"large:{family_id}:{sorted(params.items())!r}")
        alg = instantiate(FamilySpec.make(family_id, **params))
        specs = [ConnectionSpec.preset(name) for name in ("lc", "chern", "bismut")]
        specs.append(ConnectionSpec.gauduchon(Rat(rng.randint(-12, 12), rng.randint(1, 8))))
        yield (family_id, params), alg, build_metric(_large_metric(rng)), specs


def test_large_coefficients_take_the_object_dtype_and_match_the_references(dtypes):
    """Beyond the int64 bound the kernel runs on Python ints: on metrics with 2^40-high
    coordinates the curvature, its operator half and the Bianchi defect of every
    connection with nonzero curvature choose object, and all of them equal the
    references entry for entry.  The zero curvatures are the flat connections of the
    grid (Chern on Np with rho = 1, Siv1 and sl2c, and all four on the abelian Np with
    rho = 0), whose symbols stay small."""
    checked = on_object = 0
    for label, alg, h, specs in large_grid():
        for spec in specs:
            where = (label, spec.label())
            table = christoffel(spec, h, alg)
            dtypes.clear()
            got = curvature(table, h, alg).tensor
            assert _numerators(got) == _numerators(_raise_then_lower(table, h, alg)), where
            re, im, den = operator_half(table.gamma, alg.c, table.lowered)
            assert re.dtype == im.dtype == next(d for t, d in dtypes if t == 36)
            want = ref_operator(table.gamma, alg.c, table.lowered)
            assert ([-a for a in connection._stored(re)], [-b for b in connection._stored(im)],
                    den) == _numerators(want), where
            dtypes.clear()
            defect, want_defect = torsion_and_bianchi_defect(spec, h, alg), ref_defect(spec, h, alg)
            assert [_numerators(t) for t in defect] == [_numerators(t) for t in want_defect], where
            if not got.is_zero():
                assert re.dtype == object and (324, object) in dtypes, where
                on_object += 1
            checked += 1
    assert checked == 21 * 4 and on_object >= 21 * 4 - 8


def _python_ints(t):
    return all(type(a) is int for a in (*t.re, *t.im, t.den))


def test_kernel_outputs_are_python_ints_on_both_dtypes(dtypes):
    """Every numerator and den out of _lc_sum, christoffel, curvature and the Bianchi
    defect is a Python int, on the int64 path (every stage on the reference grid) and
    on the object path (the Bianchi defects of the large grid)."""
    grids = ((np.int64, itertools.islice(reference_grid("ints"), 0, None, 7)),
             (object, itertools.islice(large_grid(), 1, None, 3)))
    for dtype, grid in grids:
        for label, alg, h, specs in grid:
            dtypes.clear()
            outputs = [connection._lc_sum(alg.c, h.g)]
            for spec in specs[:4]:
                table = christoffel(spec, h, alg)
                outputs += [table.gamma, table.lowered, curvature(table, h, alg).tensor,
                            *torsion_and_bianchi_defect(spec, h, alg)]
            assert all(_python_ints(t) for t in outputs), label
            if dtype is object:
                assert (324, object) in dtypes, label
            else:
                assert {d for _, d in dtypes} == {np.int64}, label


def _stack_mismatches(alg, h, specs):
    """Where the stacked pass of specs on the point's plane differs from christoffel
    and curvature called alone, in the numerators and den of the raised and lowered
    symbols and of the curvature, or, written to lists, holds a value that is not a
    Python int; each stack must also hold one entry per spec."""
    bad = []
    stacks = connection._stacked_pass(specs, connection.ConnectionPlane(h, alg))
    low, gamma, curv = ([tensors._tensors(rank, *stack)
                         for rank, stack in zip((3, 3, 4), stacks)])
    assert len(low) == len(gamma) == len(curv) == len(specs)
    for spec, got_all in zip(specs, zip(gamma, low, curv)):
        single = christoffel(spec, h, alg)
        want = (single.gamma, single.lowered, curvature(single, h, alg).tensor)
        for name, got, w in zip(("gamma", "lowered", "curvature"), got_all, want):
            if _numerators(got) != _numerators(w) or not _python_ints(got):
                bad.append((spec.label(), name))
    return bad


def test_stacked_pass_matches_the_single_calls():
    """One stacked pass per point gives every spec the numerators and den of its
    single christoffel and curvature calls, as Python ints: on the reference grid
    (8 specs a point, int64) and on the large grid (4 specs a point, object)."""
    checked = 0
    for grid in (reference_grid("stack"), large_grid()):
        for label, alg, h, specs in grid:
            assert _stack_mismatches(alg, h, specs) == [], label
            checked += len(specs)
    assert checked == 21 * 2 * 8 + 21 * 4


def test_a_mixed_stack_takes_object_and_keeps_every_spec(dtypes):
    """A Gauduchon eps over 2^70 puts its lowered sums and its operator half beyond
    the int64 bound, so both stages run on object for every spec of the stack it
    joins: the lowered sum, _over_c's two common-denominator arrays and both of the
    operator's products (the raise follows the bound of the reduced symbols); each
    other spec of that stack still equals its single call, which runs on int64
    throughout.  The abelian structure is left out: its tables are zero, so no sum
    leaves int64."""
    huge = ConnectionSpec.gauduchon(Rat(1, 2 ** 70))
    checked = 0
    for label, alg, h, specs in itertools.islice(reference_grid("mixed"), 0, None, 5):
        if alg.c.is_zero():
            continue
        checked += 1
        plane = connection.ConnectionPlane(h, alg)
        plane.lc, plane.forms  # the point's tables, built before the spy is cleared
        dtypes.clear()
        connection._stacked_pass(specs + [huge], plane)
        assert [d for t, d in dtypes if t != 12] == [object] * 5, label
        dtypes.clear()
        for spec in specs:
            connection._stacked_pass([spec], plane)
        assert {d for _, d in dtypes} == {np.int64}, label
        assert _stack_mismatches(alg, h, specs + [huge]) == [], label
    assert checked == 8


def test_the_defect_stack_matches_the_reference(dtypes):
    """_defect_stack on the symbols of a point's connections, built as one stack, gives
    each spec the torsion and defect of ref_defect, in numerators and den: on a
    slice of the reference grid, on int64, and with a Gauduchon eps of 2^-70 joining
    each stack, which puts the whole stack's defect on object wherever c is not zero
    (the abelian structure's tables are zero, so no sum leaves int64)."""
    huge = ConnectionSpec.gauduchon(Rat(1, 2 ** 70))
    checked = 0
    for label, alg, h, specs in itertools.islice(reference_grid("defect-stack"), 0, None, 3):
        for stack, dtype in ((specs, np.int64), (specs + [huge], object)):
            dtypes.clear()
            torsion, defect = connection._defect_stack(
                connection._plane_symbols(stack, connection.ConnectionPlane(h, alg))[1], alg.c)
            want_dtype = np.int64 if alg.c.is_zero() else dtype
            assert {d for t, d in dtypes if t == 324} == {want_dtype}, label
            got = zip(tensors._tensors(3, *torsion), tensors._tensors(4, *defect))
            for spec, pair in zip(stack, got, strict=True):
                want = ref_defect(spec, h, alg)
                assert [_numerators(t) for t in pair] == [_numerators(t) for t in want], \
                    (label, spec.label())
                assert all(_python_ints(t) for t in pair)
                checked += 1
    assert checked == 14 * (8 + 9)


def test_every_stack_takes_its_common_denominators_once(monkeypatch):
    """_over_c puts a symbol stack and c over one denominator per spec, once per stack:
    one call per _stored_each, per _defect_stack and per flow.exact_lc_ricci, whose
    operator half, torsion and Ricci product all read its arrays."""
    alg = instantiate(FamilySpec.make("Ni", rho=1, **{"lambda": "1/2"}, D="1/3+2/5*i"))
    h = build_metric(MetricParams.make(r2=1, s2=2, t2="3/2", u="1/5+1/3*i"))
    specs = [ConnectionSpec.preset(name) for name in PRESETS]
    low, gamma = connection._plane_symbols(specs, connection.ConnectionPlane(h, alg))
    g6 = flow.flow_state_from_hermitian(h, alg).g6
    calls = []
    over_c = connection._over_c

    def counted(gamma, c):
        calls.append(len(gamma[1]))
        return over_c(gamma, c)

    for module in (connection, flow):
        monkeypatch.setattr(module, "_over_c", counted)
    connection._stored_each(gamma, alg.c, low)
    assert calls == [len(specs)]
    connection._defect_stack(gamma, alg.c)
    assert calls == [len(specs)] * 2
    flow.exact_lc_ricci(g6, alg)
    assert calls == [len(specs)] * 2 + [1]


def _kernel_outputs(alg, h, specs):
    """The numerators of every exact kernel product at one point: contract, the
    symbols, curvature, Ricci traces and Bianchi defect of each spec, the metric
    classification and the flow's exact Ricci."""
    out = [_numerators(contract(h.g, h.g_inv, 1, 0)), _numerators(contract(alg.c, h.g, 2, 0)),
           classify_metric(h, alg),
           flow.exact_lc_ricci(flow.flow_state_from_hermitian(h, alg).g6, alg)]
    for spec in specs:
        table = christoffel(spec, h, alg)
        curv = curvature(table, h, alg)
        rd = ricci_and_scalar(curv, h)
        out += [_numerators(t) for t in (table.gamma, table.lowered, curv.tensor,
                                         rd.ric1, rd.ric2, rd.ric_lc,
                                         *torsion_and_bianchi_defect(spec, h, alg))]
        out.append(rd.scal)
    return out


def test_the_object_dtype_gives_the_int64_numerators(monkeypatch, dtypes, matmul_dtypes):
    """With the int64 and float budgets below every product, each kernel call takes
    object, products included, and every output of a slice of the reference grid, all
    on int64 by default, keeps its numerators and den."""
    budgets = tensors._INT64_BUDGET, tensors._FLOAT_BUDGET
    for label, alg, h, specs in itertools.islice(reference_grid("object"), 0, None, 6):
        for name, budget in zip(("_INT64_BUDGET", "_FLOAT_BUDGET"), budgets):
            monkeypatch.setattr(tensors, name, budget)
        dtypes.clear()
        want = _kernel_outputs(alg, h, specs[::3])
        assert {d for _, d in dtypes} == {np.int64}, label
        for name in ("_INT64_BUDGET", "_FLOAT_BUDGET"):
            monkeypatch.setattr(tensors, name, -1)
        dtypes.clear()
        matmul_dtypes.clear()
        assert _kernel_outputs(alg, h, specs[::3]) == want, label
        assert {d for _, d in dtypes} == {object}, label
        assert set(matmul_dtypes) == {np.dtype(object)}, label
        assert {t for t, _ in dtypes} >= {12, 18, 36, 72, 216, 324}, label


@pytest.fixture
def matmul_dtypes(monkeypatch):
    """The operand dtype of every np.matmul call, in call order: float64 marks a kernel
    product on the float tier of tensors._cmatmul."""
    seen = []
    matmul = np.matmul

    def spy(a, b, *args, **kwargs):
        seen.append(np.asarray(a).dtype)
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    return seen


def test_the_float_tier_gives_the_int64_numerators(monkeypatch, dtypes, matmul_dtypes):
    """With the float budget below every product, each kernel product runs in its
    storage dtype (int64, or object beyond the int64 bound), and every output of a
    slice of the reference grid, whose products run on float64 by default wherever
    the bound allows, keeps its numerators and den; the storage dtypes do not move."""
    budget = tensors._FLOAT_BUDGET
    for label, alg, h, specs in itertools.islice(reference_grid("float"), 0, None, 6):
        monkeypatch.setattr(tensors, "_FLOAT_BUDGET", budget)
        dtypes.clear()
        matmul_dtypes.clear()
        want = _kernel_outputs(alg, h, specs[::3])
        on_float = dtypes[:]
        assert np.float64 in matmul_dtypes, label
        monkeypatch.setattr(tensors, "_FLOAT_BUDGET", -1)
        dtypes.clear()
        matmul_dtypes.clear()
        assert _kernel_outputs(alg, h, specs[::3]) == want, label
        assert np.float64 not in matmul_dtypes, label
        assert dtypes == on_float, label


def _gaussian_product(a, b):
    """The Gaussian-integer product of [re, im] arrays a (2, n, k) and b (2, k, m),
    by a loop over Python ints."""
    (ar, ai), (br, bi) = a.tolist(), b.tolist()
    n, k, m = len(ar), len(br), len(br[0])
    return [[[sum(ar[i][j] * br[j][l] - ai[i][j] * bi[j][l] for j in range(k)) for l in range(m)]
             for i in range(n)],
            [[sum(ar[i][j] * bi[j][l] + ai[i][j] * br[j][l] for j in range(k)) for l in range(m)]
             for i in range(n)]]


def test_the_float_tier_holds_at_its_edge(monkeypatch, matmul_dtypes):
    """A product budget of 52 bits (bits(A) + bits(B) + ceil(log2 terms)) runs on
    float64 and stays exact at its worst case, every real product 2^48-high and the 16
    summed per entry just below 2^52; the same entries in a matrix product below
    _FLOAT_MIN_SIZE multiply-adds run on int64.  A budget of 54 runs on int64: its
    crafted sum 4 m^2 - m of 26-bit factors is odd and above 2^53, so float64 cannot
    hold it, and with the float budget raised to 60 the same product comes out
    rounded."""
    m = 2 ** 24 - 1  # 24 + 24 + ceil(log2 16) = 52
    for rows, dtype in ((36, np.float64), (1, np.int64)):  # 36 x 8 x 36 and 1 x 8 x 36
        a = np.array([[[m] * 8] * rows] * 2, np.int64)  # m (1 + i)
        b = np.array([[[m] * 36] * 8, [[-m] * 36] * 8], np.int64)  # m (1 - i)
        matmul_dtypes.clear()
        got = tensors._cmatmul(a, b, 48, 16)
        assert matmul_dtypes == [dtype]
        assert got.dtype == np.int64 and got.tolist() == _gaussian_product(a, b)
        assert got[0, 0, 0] == 16 * m * m and 2 ** 52 - 16 * m * m < 2 ** 30

    m = 2 ** 26 - 1  # 26 + 26 + ceil(log2 4) = 54
    a = np.array([[[m, m]] * 36] * 2, np.int64)
    b = np.array([[[m] * 36, [m - 1] * 36], [[-m] * 36] * 2], np.int64)
    want = _gaussian_product(a, b)
    assert want[0][0][0] == 4 * m * m - m and want[0][0][0] % 2 and want[0][0][0] > 2 ** 53
    assert tensors._cmatmul(a, b, 52, 4).tolist() == want
    monkeypatch.setattr(tensors, "_FLOAT_BUDGET", 60)
    assert tensors._cmatmul(a, b, 52, 4).tolist() != want


def test_the_product_casts_its_operands_to_the_tier_of_its_bound(matmul_dtypes):
    """_cmatmul takes its operands in any storage dtype, read-only views too, and runs
    on the tier of its bound alone: int64 operands whose bound exceeds 62 bits run on
    object, and object operands within the int64 bound come back int64, on int64
    below _FLOAT_MIN_SIZE multiply-adds and on float64 from it; each exact."""
    m = 2 ** 40 + 1  # 41 + 41 + ceil(log2 12) = 86 bits
    a = np.array([[[m] * 6] * 36, [[-m] * 6] * 36], np.int64)  # m (1 - i)
    b = np.array([[[m] * 6] * 6] * 2, np.int64)  # m (1 + i)
    b.setflags(write=False)
    matmul_dtypes.clear()
    got = tensors._cmatmul(a, b, 82, 12)
    assert matmul_dtypes == [np.dtype(object)] and got.dtype == object
    assert got.tolist() == _gaussian_product(a, b) and got[0, 0, 0] == 12 * m * m > 2 ** 63
    for rows, tier in ((1, np.int64), (36, np.float64)):  # 1 x 6 x 6 and 36 x 6 x 6
        a = np.array([[[3, -5, 7, 0, 1, -2]] * rows, [[-1, 4, 0, 6, -3, 2]] * rows], object)
        b = np.array([[[k - 2 * j for k in range(6)] for j in range(6)]] * 2, object)
        matmul_dtypes.clear()
        got = tensors._cmatmul(a, b, 6, 12)
        assert matmul_dtypes == [np.dtype(tier)] and got.dtype == np.int64
        assert got.tolist() == _gaussian_product(a, b)


def test_a_sign_product_at_the_int64_edge_stays_exact(matmul_dtypes):
    """A numerator of -2^63, whose negation int64 cannot hold, enters the kernel through
    a stored tensor, which keeps it on object, and stays exact where the kernel
    multiplies by +-1: in the signed rows of algebra._d_sums, whose bound puts the
    product on object, and in the masks of tensors._partner_hits."""
    edge = -2 ** 63
    cre, cim = [0] * 216, [0] * 216
    cre[flat_offset((0, 1, 2))], cim[flat_offset((0, 1, 2))] = edge, 3
    cre[flat_offset((3, 4, 5))] = 7
    c = MultiTensor.from_numerators(3, cre, cim, 1)
    alpha = MultiTensor.from_numerators(1, [1, 2, 1, 0, 0, -1], [0, 0, -1, 2, 0, 0], 1)
    assert tensors._arrays(c)[0].dtype == object
    matmul_dtypes.clear()
    z, den = algebra._d_sums(alpha, c)
    assert matmul_dtypes == [np.dtype(object)] and den == 1
    # d(alpha)(x, y) = -alpha([x, y]) = -sum_a c_{xy}^a alpha_a on the 15 pairs x < y
    want = [[], []]
    for x, y in itertools.combinations(range(6), 2):
        prod = [(cre[36 * x + 6 * y + a] * alpha.re[a] - cim[36 * x + 6 * y + a] * alpha.im[a],
                 cre[36 * x + 6 * y + a] * alpha.im[a] + cim[36 * x + 6 * y + a] * alpha.re[a])
                for a in range(6)]
        want[0].append(-sum(p for p, _ in prod))
        want[1].append(-sum(q for _, q in prod))
    assert z.tolist() == want and want[0][0] == 2 ** 63 - 3 and want[1][0] == -2 ** 63 - 3

    # a stored rank-1 tensor, each entry read against its swap partner as skew and as equal
    zl = [[[edge, edge, edge, 5, 7, -7]], [[0, 0, 0, 0, 0, 0]]]
    z = tensors._stack((MultiTensor.from_numerators(1, *(part[0] for part in zl), 1),))[0]
    partners, signs = np.array([[1, 0, 3, 2, 5, 4]] * 2), np.array([[-1, 1], [-1, 1]])
    sl, pl = signs.tolist(), partners.tolist()  # on Python ints
    want = [[[any(zl[p][0][pl[j][n]] != sl[p][j] * zl[p][0][n] for p in (0, 1))
              for j in range(2)] for n in range(6)]]
    assert want[0][0] == [True, False]  # -(-2^63) = 2^63, so not the partner's -2^63
    assert z.dtype == object and tensors._partner_hits(z, partners, signs).tolist() == want


def test_large_coefficients_in_contract_and_the_exact_ricci(dtypes):
    """On the large grid's metrics g g^{-1} contracts to the identity, and the flow's
    exact Ricci equals the operator reference and the Levi-Civita ric_lc, with each
    of the three on object wherever its inputs are not all zero (every structure
    but the abelian one, whose symbols vanish)."""
    lc = ConnectionSpec.preset("lc")
    on_object = 0
    for label, alg, h, _ in large_grid():
        dtypes.clear()
        assert contract(h.g, h.g_inv, 1, 0) == identity_tensor(), label
        assert dtypes == [(12, object)], label
        g6 = flow.flow_state_from_hermitian(h, alg).g6
        dtypes.clear()
        exact = flow.exact_lc_ricci(g6, alg)
        exact_dtype = dtypes[-1]
        assert exact == ref_exact_lc_ricci(g6, alg), label
        dtypes.clear()
        ric = ricci_and_scalar(curvature_of(lc, h, alg), h).ric_lc
        assert ric == exact, label
        assert (72, object) in dtypes, label
        if exact_dtype == (216, object):
            on_object += 1
    assert on_object == 21 - 1


def _edge_tables(m, mx):
    """(gamma, c, x) at the worst case of the operator's bound: gamma = m(1+i) s(H),
    c = -m(1+i) and x = mx(1-i), with s(H) = 1 for barred H and -1 otherwise, so every
    real product of the 36 per entry of a pair (unbarred I, barred H) adds m mx."""
    def table(value):
        re, im = zip(*(value(idx) for idx in all_indices(3)))
        return MultiTensor.from_numerators(3, list(re), list(im), 1)

    gamma = table(lambda idx: (m, m) if idx[0] >= 3 else (-m, -m))
    return gamma, table(lambda idx: (-m, -m)), table(lambda idx: (mx, -mx))


def test_the_dtype_chooser_holds_at_the_int64_edge():
    """A product budget of 62 bits (bits(A) + bits(B) + ceil(log2 terms)) runs on int64
    and stays exact at its worst case; 63 bits run on object.  A sum at budget 63 would
    still be below 2^63, so the dtype, not an overflow, pins the bound here."""
    choose = tensors._dtype
    assert choose(56, 36) is np.int64 and choose(57, 36) is object
    assert choose(56, 64) is np.int64 and choose(56, 65) is object
    assert choose(62, 1) is np.int64 and choose(62, 2) is object
    m = 2 ** 28 - 1  # 28 bits: 28 + 28 + ceil(log2 36) = 62
    for mx, dtype in ((m, np.int64), (m + 1, object)):
        gamma, c, x = _edge_tables(m, mx)
        re, im, den = operator_half(gamma, c, x)
        assert re.dtype == im.dtype == dtype
        want = ref_operator(gamma, c, x)
        assert ([-a for a in connection._stored(re)], [-b for b in connection._stored(im)],
                den) == _numerators(want)
        assert max(want.re) == 36 * m * mx  # the worst case is reached
    assert 36 * m * m < 2 ** 62 and 36 * m * (m + 1) < 2 ** 63


def _table(value):
    """The rank-3 tensor over 1 whose entry at (I, H, K) is value(I, H, K) (1 + i)."""
    re = [value(*idx) for idx in all_indices(3)]
    return MultiTensor.from_numerators(3, re, re, 1)


def test_the_common_denominator_arrays_hold_eight_term_sums_at_the_int64_edge(dtypes):
    """_over_c stores the symbols and c on int64 up to a bound of 2^59 - 1, where a sum
    of 8 entries stays below 2^62, and on object from 2^59 on.  At the edge, one bit
    beyond it and at 2^62 - 1, whose sums no int64 holds, the defect's torsion
    zg - swap(zg) - zc and the exact Ricci's left factor flow._ricci_left(zc) - Gamma
    equal Python-int references at their worst cases, 3 m and 8 m."""
    swap = [36 * hh + 6 * i + k for i, hh, k in all_indices(3)]
    for m, dtype in ((2 ** 59 - 1, np.int64), (2 ** 59, object), (2 ** 62 - 1, object)):
        # the torsion: Gamma = m s(I, H) and c = -m s(I, H), s = 1 for I < H and -1 otherwise
        gamma = _table(lambda i, hh, k: m if i < hh else -m)
        c = _table(lambda i, hh, k: -m if i < hh else m)
        dtypes.clear()
        (zt, _), _ = connection._defect_stack(tensors._stack((gamma,)), c)
        assert dtypes[0] == (8, dtype), m
        g, cr = gamma.re, c.re
        want = [g[n] - g[swap[n]] - cr[n] for n in range(216)]
        assert zt[:, 0].tolist() == [want, want] and max(want) == 3 * m, m
        # the Ricci left factor: c = m where I = K and -m elsewhere, Gamma = -m
        gamma, c = _table(lambda i, hh, k: -m), _table(lambda i, hh, k: m if i == k else -m)
        zg, zc, _, bounds = connection._over_c(tensors._stack((gamma,)), c)
        assert zg.dtype == zc.dtype == dtype and bounds == [m], m
        left = flow._ricci_left(zc.reshape(2, 6, 6, 6)) - zg.reshape(2, 6, 36)
        g, cr = gamma.re, c.re
        # K[H, (B, A)] = trc_B delta_{AH} - c_{BH}^A - Gamma_{HB}^A, trc_B = sum_A c_{AB}^A
        trc = [sum(cr[37 * j + 6 * b] for j in range(6)) for b in range(6)]
        want = [[(trc[b] if a == hh else 0) - cr[36 * b + 6 * hh + a] - g[36 * hh + 6 * b + a]
                 for b in range(6) for a in range(6)] for hh in range(6)]
        assert left.tolist() == [want, want] and max(map(max, want)) == 8 * m, m


def test_the_defect_sums_its_half_rows_in_the_dtype_of_its_bound(monkeypatch, dtypes):
    """An int64 operator half with rows near 2^62 is summed on object where the defect's
    324-term bound puts d^nabla T there: the defect less that of a zero half is the
    cyclic sum R(i,hh)k + R(hh,k)i - R(i,k)hh of the half's rows, filled in with the
    permutation signs, on Python ints; three such rows summed on int64 would wrap."""
    big = 2 ** 62 - 1
    # |Gamma| < 2^28: 2 x 28 + ceil(log2 324) = 65 bits put d^nabla T on object
    rng = random.Random("defect:half-rows")
    gamma = MultiTensor.from_numerators(3, [rng.randint(-2 ** 27, 2 ** 27) for _ in range(216)],
                                        [rng.randint(-2 ** 27, 2 ** 27) for _ in range(216)], 3)
    # rows R(I,H)K^X, I < H, at +big, except at -big where I < K < H
    sign = [-1 if i < k < hh else 1
            for i, hh in connection._PAIRS for k in range(6) for _ in range(6)]
    half = np.array([[sign], [[-s for s in sign]]], np.int64) * big
    operator = connection._operator

    def stub(value):
        def stubbed(over, x):
            assert operator(over, x)[0].dtype == np.int64
            return value, [d * d for d in over[2]]
        return stubbed

    defects = []
    for value in (half, np.zeros_like(half)):
        monkeypatch.setattr(connection, "_operator", stub(value))
        dtypes.clear()
        defects.append(connection._defect_stack(tensors._stack((gamma,)), IWASAWA.c)[1][0])
        assert (324, object) in dtypes and defects[-1].dtype == object
    got = (defects[0] - defects[1])[:, 0].tolist()

    hre, him = half[:, 0].tolist()
    want = [[0] * 6 ** 4, [0] * 6 ** 4]
    for i, hh, k in itertools.combinations(range(6), 3):
        rows = [36 * connection._PAIR[x, y] + 6 * z
                for x, y, z in ((i, hh, k), (hh, k, i), (i, k, hh))]
        for part, h in zip(want, (hre, him)):
            for a in range(6):
                total = h[rows[0] + a] + h[rows[1] + a] - h[rows[2] + a]
                assert abs(total) == 3 * big > 2 ** 63
                for (x, y, z), s in zip(itertools.permutations((i, hh, k)), (1, -1, -1, 1, 1, -1)):
                    part[216 * x + 36 * y + 6 * z + a] = s * total
    assert got == want


def test_numerator_arrays_take_object_beyond_int64():
    """tensors._numerators stores int64 only for the symmetric range |n| <= 2^63 - 1, on
    both signs, and object beyond it: -2^63, whose negation int64 cannot hold, and
    2^63.  Lists and object arrays convert alike, keeping every value and the nesting,
    and the stored array negates exactly; an int64 array, as the kernel writes it, is
    kept as it is."""
    for big, dtype in ((2 ** 63 - 1, np.int64), (-2 ** 63 + 1, np.int64),
                       (-2 ** 63, object), (2 ** 63, object)):
        parts = ([[1, big, 0], [2, 3, 4]], [[0, -5, 6], [7, 8, 9]])
        for given in (parts, np.array(parts, object)):
            z = tensors._numerators(given)
            assert z.dtype == dtype and z.shape == (2, 2, 3), (big, type(given))
            assert z.tolist() == list(parts)
            assert (-z).tolist() == [[[-a for a in row] for row in part] for part in parts]
    kernel = np.arange(12, dtype=np.int64).reshape(2, 2, 3)
    assert tensors._numerators(kernel) is kernel


def test_every_constructor_stores_one_read_only_array():
    """After each constructor, and after __setitem__, a tensor stores one read-only
    ndarray; its re and im are tuples that reject a write; and [] reads at every offset
    the value of what _arrays holds.  A write to a copy, made after a kernel read of
    the source, stores a new array and leaves the source as it was."""
    h = build_metric(MetricParams.make(r2=2, s2=3, t2=1, u="1/5*i"))
    kernel = curvature_of(ConnectionSpec.gauduchon(Rat(2, 7)), h, IWASAWA).tensor
    z0 = tensors._arrays(kernel)[0].copy()
    n = next(n for n, _ in kernel.nonzero_offsets())
    written = kernel.copy()
    written[all_indices(4)[n]] = kernel[all_indices(4)[n]] + gr("1/3")
    listed = MultiTensor.from_numerators(1, [1, 0, 0, 0, 0, 0], [0] * 6, 1)
    tensors._arrays(listed)
    listed[1] = gr(5)  # a write after a kernel read is what the next read sees
    built = {
        "value": MultiTensor(2, [gr(f"{k}/7+1/3*i") for k in range(36)]),
        "zeros": MultiTensor(3),
        "from_numerators": MultiTensor.from_numerators(1, [2, 4, 0, 0, 0, -2 ** 70],
                                                       [0, 6, 0, 0, 0, 0], 2),
        "_tensor": kernel,
        "reduced": MultiTensor.from_numerators(1, [2, 4, 0, 0, 0, 0], [0, 6, 0, 0, 0, 0],
                                               2).reduced(),
        "copy": kernel.copy(),
        "pickle": pickle.loads(pickle.dumps(kernel)),
        "deepcopy": copy.deepcopy(kernel),
        "neg": -kernel,
        "setitem": written,
        "setitem after a read": listed,
        "identity": identity_tensor(),
        # -2^63, the one int64 with no int64 negation, negated and divided out exactly
        "neg at the int64 edge": -MultiTensor.from_numerators(1, [-2 ** 63, 1, 0, 0, 0, 0],
                                                              [0] * 6, 1),
        "reduced at the int64 edge": MultiTensor.from_numerators(1, [-2 ** 63, 0, 0, 0, 0, 0],
                                                                 [0] * 6, 2 ** 63).reduced(),
    }
    for name, t in built.items():
        z, m = tensors._arrays(t)
        assert isinstance(z, np.ndarray) and not z.flags.writeable, name
        assert z.shape == (2, 6 ** t.rank) and m == tensors._maxabs(z), name
        # int64 storage holds the symmetric range alone, so -2^63 never on int64
        assert z.dtype == object or z.min() > -2 ** 63, name
        for view in (t.re, t.im):
            with pytest.raises(TypeError):
                view[0] = 1
        assert [t[idx] for idx in all_indices(t.rank)] == [
            numerator_value(a, b, t.den) for a, b in zip(*z.tolist())], name
    assert built["reduced"].den == 1 and list(built["reduced"].re) == [1, 2, 0, 0, 0, 0]
    assert list(built["neg at the int64 edge"].re) == [2 ** 63, -1, 0, 0, 0, 0]
    edge = built["reduced at the int64 edge"]
    assert (edge.den, list(edge.re)) == (1, [-1, 0, 0, 0, 0, 0])
    assert listed[1] == gr(5) and tensors._arrays(listed)[0][0, 1] == 5
    assert (tensors._arrays(kernel)[0] == z0).all() and built["copy"] == kernel
    assert built["pickle"] == kernel and built["deepcopy"] == kernel
    assert written[all_indices(4)[n]] == kernel[all_indices(4)[n]] + gr("1/3")
    assert built["neg"] == MultiTensor(4, [-kernel[idx] for idx in all_indices(4)])


def test_a_write_after_a_kernel_read_is_what_the_next_read_sees():
    """__setitem__ stores a new array: the next _arrays read, and its max |entry|,
    hold the written entry, on a list-born tensor and on a kernel-written one."""
    t = MultiTensor(2)
    z, m = tensors._arrays(t)
    assert not z.any() and m == 0
    t[0, 3] = gr("1/2+i")
    z, m = tensors._arrays(t)
    assert (z[:, 3].tolist(), t.den, m) == ([1, 2], 2, 2)
    h = build_metric(MetricParams.make(r2=2, s2=3, t2=1, u="1/5*i"))
    prod = contract(h.g, h.g_inv, 1, 0)
    tensors._arrays(prod)
    prod[1, 2] = gr("7/3")
    z, m = tensors._arrays(prod)
    assert prod[1, 2] == gr("7/3") and prod[0, 0] == gr(1) and m == tensors._maxabs(z)
    assert numerator_value(*z[:, 8].tolist(), prod.den) == gr("7/3")


def test_a_stored_array_rejects_an_in_place_write():
    """Every stored array is read-only, so no caller that reads it (through _arrays or
    a one-tensor stack) can change a tensor by writing to it.  A kernel-written
    tensor's array may view the kernel's own output, which the kernel does not write
    after _tensor has it; the flag does not guard that array."""
    h = build_metric(MetricParams.make(r2=2, s2=3, t2=1, u="1/5*i"))
    t = curvature_of(ConnectionSpec.preset("chern"), h, IWASAWA).tensor
    for tensor in (t, h.g, MultiTensor(1)):
        z, _ = tensors._arrays(tensor)
        with pytest.raises(ValueError):
            z[0, 0] = 1
        with pytest.raises(ValueError):
            z[:, :1] += 1
    before = tensors._arrays(t)[0].copy()
    stack, _ = tensors._stack((t, t))
    stack[0, 0] += 1  # a stack is a copy of its tensors' arrays
    assert (tensors._arrays(t)[0] == before).all()


def test_torsion_forms_stay_exact_at_the_int64_edge(monkeypatch):
    """A d(omega) numerator of -2^63, whose negation int64 cannot hold, is stored on
    object: T = -d(omega)(Jx, Jy, Jz) and C = d(omega)(Jx, y, z) keep their exact
    values."""
    edge = -2 ** 63
    re, im = [0] * 216, [0] * 216
    re[flat_offset((0, 1, 5))], im[flat_offset((0, 1, 5))] = edge, 3
    re[flat_offset((3, 4, 2))], im[flat_offset((3, 4, 2))] = 5, edge
    domega = MultiTensor.from_numerators(3, re, im, 7)
    assert tensors._arrays(domega)[0].dtype == object
    monkeypatch.setattr(metric, "exterior_d", lambda omega, alg: domega)
    h = build_metric(MetricParams.make())
    t, c = metric.torsion_forms(h, IWASAWA)
    j = metric.j_factor
    for idx in all_indices(3):
        value = domega[idx]
        assert t[idx] == -j(idx[0]) * j(idx[1]) * j(idx[2]) * value, idx
        assert c[idx] == j(idx[0]) * value, idx
    for form in (t, c):
        nums = (*form.re, *form.im)
        assert form.den == 7 and all(type(a) is int for a in nums)
        # the _numerators rule: each form holds 2^63 or -2^63, both beyond |n| <= 2^63 - 1
        assert max(map(abs, nums)) == 2 ** 63 and tensors._arrays(form)[0].dtype == object


def test_zero_tables_take_scale_factors_beyond_int64():
    """On the torus every table is zero, so every sum fits int64, while a metric with
    2^70 denominators puts the zero torsion forms' lcm factors beyond int64: the
    factors must not meet the int64 zeros, and every output is zero."""
    h = build_metric(MetricParams.make(r2=Rat(1, 2 ** 70), s2=Rat(3, 2 ** 65), t2=1))
    for name in PRESETS:
        spec = ConnectionSpec.preset(name)
        assert curvature_of(spec, h, TORUS).tensor.is_zero()
        assert all(t.is_zero() for t in torsion_and_bianchi_defect(spec, h, TORUS))


def test_oracles_catch_a_lower_half_block_read_with_the_wrong_sign(monkeypatch, rng):
    """One lower-half (I > H) entry of the expansion table read from the negated copy
    fails the skew12 check and the sweep's curvature-symmetry rows, and moves the
    Levi-Civita ric_lc off the flow's exact trace.  The scoreboard bytes do not move:
    its verdicts are zero tests and its witnesses are lexicographically first, so
    they read only I < H blocks."""
    alg = instantiate(FamilySpec.make("Nii", rho=1, B="1/2-1/3*i", c="2/3"))
    h = build_metric(rand_metric(rng))
    lc = ConnectionSpec.preset("lc")
    g6 = flow.flow_state_from_hermitian(h, alg).g6

    def ric_lc_off_the_exact_trace():
        ric = ricci_and_scalar(curvature_of(lc, h, alg), h).ric_lc
        exact = flow.exact_lc_ricci(g6, alg)
        return any(ric[i, j] != exact[i, j] for i, j in all_indices(2))

    assert not curvature_symmetry_failures(curvature_of(lc, h, alg))
    assert not ric_lc_off_the_exact_trace()
    one_bar, one = 3, 0  # the block (1b, 1) read like the block (1, 1b)
    table = connection._EXPAND[:]
    table[6 * one_bar + one] = table[6 * one + one_bar]
    monkeypatch.setattr(connection, "_EXPAND", table)
    assert ("skew12", (one, one_bar, 0, 3)) in curvature_symmetry_failures(curvature_of(lc, h, alg))
    assert ric_lc_off_the_exact_trace()
    failed = {r.name.split("[")[0] for r in verify.structural_sweep(
        verify.SamplePlan(seed=0), metrics_per_structure=1, random_gauduchon=0) if not r.passed}
    assert failed == {"curvature-symmetries"}


def test_oracles_catch_raised_symbols_in_the_curvature(monkeypatch, rng):
    """Curvature built on the raised symbols where the lowered ones belong fails
    both the goldens and the raise-then-lower reference, and moves the seed-0
    scoreboard bytes."""
    alg = instantiate(FamilySpec.make("Nii", rho=1, B="1/2-1/3*i", c="2/3"))
    h = build_metric(rand_metric(rng))
    table = christoffel(ConnectionSpec.preset("chern"), h, alg)
    case = ("Ni", FamilySpec.make("Ni", rho=1, **{"lambda": "1/2"}, D="1/3+2/5*i"),
            MetricParams.make(r2=1, s2=2, t2="3/2", u="1/5+1/3*i"), (Rat(1, 4),))
    plan = verify.SamplePlan(seed=0, points_per_case=1)
    board = verify.theorem_suite(plan, threads=1).to_json()
    operator = connection._operator

    def raised(over, x):
        zg, _, dens, _ = over
        return operator(over, (zg, dens))

    monkeypatch.setattr(connection, "_operator", raised)
    assert curvature(table, h, alg).tensor != _raise_then_lower(table, h, alg)
    assert not all(ok for *_, ok in goldens.compare_components(*case))
    assert verify.theorem_suite(plan, threads=1).to_json() != board


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


def _shared_route_mismatches(make_plane):
    """Where the tables built on one make_plane(h, alg) per point differ from
    christoffel(spec, h, alg), in gamma or lowered, or classify_metric given the
    plane's forms differs from classify_metric(h, alg): over the sweep's 21
    structures x (6 presets + 3 seeded Gauduchon eps) x 2 seeded metrics."""
    bad, checked = [], 0
    for family_id, params in verify._SWEEP_STRUCTURES:
        rng = random.Random(f"plane:{family_id}:{sorted(params.items())!r}")
        alg = instantiate(FamilySpec.make(family_id, **params))
        specs = [ConnectionSpec.preset(name) for name in PRESETS]
        specs += [ConnectionSpec.gauduchon(Rat(rng.randint(-12, 12), rng.randint(1, 8)))
                  for _ in range(3)]
        for m in range(2):
            h = build_metric(verify.sample_metric(rng))
            plane = make_plane(h, alg)
            point = (family_id, tuple(sorted(params.items())), m)
            if classify_metric(h, alg, plane.forms) != classify_metric(h, alg):
                bad.append((point, "classify"))
            for spec in specs:
                shared, single = _table_on(spec, plane), christoffel(spec, h, alg)
                for name in ("gamma", "lowered"):
                    got, want = getattr(shared, name), getattr(single, name)
                    if (got.re, got.im, got.den) != (want.re, want.im, want.den):
                        bad.append((point, spec.label(), name))
                checked += 1
    assert checked == 21 * 9 * 2
    return bad


def test_shared_plane_matches_the_single_call():
    """Every connection built on the point's one plane has the numerators and
    denominator of the connection built alone, and classification agrees."""
    assert _shared_route_mismatches(connection.ConnectionPlane) == []


def test_a_plane_builds_each_table_once_on_its_first_read(monkeypatch):
    """A plane builds lc and (T, C) only when a connection reads them, and once each:
    Levi-Civita christoffel and curvature_stack calls build no (T, C), Gauduchon ones
    build it once, and reading a plane's lc and forms twice builds each table once."""
    counts = collections.Counter()

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(connection, "torsion_forms", counted("forms", metric.torsion_forms))
    monkeypatch.setattr(connection, "_lc_sum", counted("lc", connection._lc_sum))
    h = build_metric(MetricParams.make(r2=2, s2=1, t2="3/2", u="1/4+1/5*i"))
    lc = ConnectionSpec.preset("lc")
    gauduchon = [ConnectionSpec.gauduchon(Rat(e, 7)) for e in (1, 2, 3)]
    for call, forms in ((lambda p: christoffel(lc, h, IWASAWA), 0),
                        (lambda p: connection.curvature_stack([lc, lc], p), 0),
                        (lambda p: christoffel(gauduchon[0], h, IWASAWA), 1),
                        (lambda p: connection.curvature_stack(gauduchon + [lc], p), 1)):
        counts.clear()
        call(connection.ConnectionPlane(h, IWASAWA))
        assert counts == collections.Counter(lc=1, forms=forms)
    counts.clear()
    plane = connection.ConnectionPlane(h, IWASAWA)
    assert counts == {}
    tables = plane.lc, plane.forms
    assert plane.lc is tables[0] and plane.forms is tables[1]
    assert counts == {"lc": 1, "forms": 1}


def _negated_t_plane(h, alg):
    plane = connection.ConnectionPlane(h, alg)
    t, c = plane.forms
    plane.forms = (-t, c)
    return plane


def test_oracles_catch_a_negated_torsion_form_in_the_plane(monkeypatch):
    """A plane whose T is negated fails the single-call equality, moves the
    scoreboard bytes and fails the sweep's type-preservation check.  The
    scoreboard's Kahler-like verdicts alone do not catch it; its rows' nabla J
    check does, so the seed-0 board, which passes on the sound plane, fails."""
    assert _shared_route_mismatches(_negated_t_plane)
    plan = verify.SamplePlan(seed=0, points_per_case=1)
    sound = verify.theorem_suite(plan, threads=1)
    assert sound.passed
    monkeypatch.setattr(verify, "ConnectionPlane", _negated_t_plane)
    broken = verify.theorem_suite(plan, threads=1)
    assert broken.to_json() != sound.to_json()
    assert not broken.passed
    failing = [c for c in broken.cases if not c.passed]
    assert failing and all("nabla-j-fail" in c.observed for c in failing)
    failed = {r.name.split("[")[0] for r in verify.structural_sweep(
        plan, metrics_per_structure=1, random_gauduchon=0) if not r.passed}
    assert "nabla-j" in failed
