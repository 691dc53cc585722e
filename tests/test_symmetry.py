import itertools

import numpy as np
import pytest

from curvlab import symmetry, tensors
from curvlab.algebra import LieAlgebraCx
from curvlab.catalog import FamilySpec, instantiate
from curvlab.connection import (
    ConnectionPlane,
    ConnectionSpec,
    CurvatureTensor,
    christoffel,
    curvature,
    curvature_of,
    curvature_stack,
    curvature_symmetry_failures,
    nabla_g_failures,
    ricci_and_scalar,
)
from curvlab.metric import MetricParams, build_metric
from curvlab.scalars import GaussianRational, Rat, gr
from curvlab.symmetry import (
    BTensor,
    FlatnessResult,
    KahlerLikeReport,
    flatness_check,
    gray_check_lc,
    kahler_like_check,
    report_to_json,
    stack_verdicts,
)
from curvlab.tensors import all_indices, flat_offset, numerator_value

from conftest import rand_metric
from test_connection import large_grid, reference_grid

TORUS = LieAlgebraCx.from_dphi({})
IWASAWA = LieAlgebraCx.from_dphi({2: {(0, 1): gr(1)}})


def test_b_tensor_skew_by_construction(rng):
    alg = instantiate(FamilySpec.make("Sii", x="1/2"))
    h = build_metric(rand_metric(rng))
    b = BTensor(curvature_of(ConnectionSpec.preset("bismut"), h, alg))
    for i in range(3):
        for j in range(3):
            for k in range(3):
                for l in range(3):
                    assert b.component(i, j, k, l) == -b.component(k, j, i, l)


def test_b_tensor_matches_definition(rng):
    # oracle: B_{i jb k lb} = R_{i jb k lb} - R_{k jb i lb} componentwise
    alg = instantiate(FamilySpec.make("Niii", rho=0, sign=1))
    h = build_metric(rand_metric(rng))
    curv = curvature_of(ConnectionSpec.preset("first-canonical"), h, alg)
    b = BTensor(curv)
    r = curv.tensor
    for i in range(3):
        for j in range(3):
            for k in range(3):
                for l in range(3):
                    assert b.component(i, j, k, l) == \
                        r[i, j + 3, k, l + 3] - r[k, j + 3, i, l + 3]


def test_torus_kahler_like(rng):
    h = build_metric(rand_metric(rng))
    for name in ("lc", "chern", "bismut", "first-canonical"):
        report = kahler_like_check(curvature_of(ConnectionSpec.preset(name), h, TORUS))
        assert report.verdict
        assert not report.type_residues and not report.bianchi_residues


def test_iwasawa_chern_kahler_like(rng):
    h = build_metric(rand_metric(rng))
    assert kahler_like_check(curvature_of(ConnectionSpec.preset("chern"), h, IWASAWA)).verdict


def test_iwasawa_gauduchon_witness_closed_form(rng):
    # B[1,1b,3,3b] = 2 eps^2 t^4 (r2 t2 - |z|^2) / det_scaled for eps != 0
    for _ in range(3):
        p = rand_metric(rng)
        h = build_metric(p)
        det = h.det_scaled
        for eps in (Rat(1, 6), Rat(1, 4), Rat(1, 2), Rat(2, 3)):
            curv = curvature_of(ConnectionSpec.gauduchon(eps), h, IWASAWA)
            report = kahler_like_check(curv)
            assert not report.verdict
            b = BTensor(curv)
            expected = GaussianRational(2 * eps * eps * p.t2 * p.t2) \
                * GaussianRational(p.r2 * p.t2 - p.z.abs2()) / det
            assert b.component(0, 0, 2, 2) == expected
            assert ((0, 3, 2, 5), expected) in report.bianchi_residues


def test_h2_bismut_kahler_like():
    alg = instantiate(FamilySpec.make("Ni", rho=0, **{"lambda": 0}, D="i"))
    h = build_metric(MetricParams.make(r2=1, s2=2, t2="3/2"))
    assert kahler_like_check(curvature_of(ConnectionSpec.preset("bismut"), h, alg)).verdict


def test_flatness():
    h = build_metric(MetricParams.make(r2=2, s2=1, t2=1, u="1/3"))
    assert flatness_check(curvature_of(ConnectionSpec.preset("chern"), h, IWASAWA)).flat

    alg = instantiate(FamilySpec.make("Ni", rho=0, **{"lambda": 0}, D="i"))
    for s2, t2 in ((Rat(1), Rat(1)), (Rat(2), Rat(3, 2))):
        h2 = build_metric(MetricParams.make(r2=1, s2=s2, t2=t2))
        res = flatness_check(curvature_of(ConnectionSpec.preset("bismut"), h2, alg))
        assert not res.flat
        idx, value = res.witness
        assert idx == (0, 3, 0, 3)  # R[1,1b,1,1b], the first nonzero in lex order
        assert value == GaussianRational(t2)


def test_g4_bismut_not_flat():
    alg = instantiate(FamilySpec.make("Siii1", sign=1))
    t2 = Rat(5, 2)
    h = build_metric(MetricParams.make(r2=2, s2=1, t2=t2))
    res = flatness_check(curvature_of(ConnectionSpec.preset("bismut"), h, alg))
    assert not res.flat
    curv = curvature_of(ConnectionSpec.preset("bismut"), h, alg)
    assert curv.component(0, 3, 0, 3) == GaussianRational(t2)


def test_gray_torus(rng):
    h = build_metric(rand_metric(rng))
    assert gray_check_lc(curvature_of(ConnectionSpec.preset("lc"), h, TORUS))


def test_gray_rejects_non_lc(rng):
    h = build_metric(rand_metric(rng))
    with pytest.raises(ValueError):
        gray_check_lc(curvature_of(ConnectionSpec.preset("chern"), h, TORUS))


def test_gray_ni_balanced_point():
    # rho = 1 balanced point: the Gray condition fails
    s2 = Rat(2)
    alg = instantiate(FamilySpec.make("Ni", rho=1, **{"lambda": 0}, D=GaussianRational(-s2)))
    h = build_metric(MetricParams.make(r2=1, s2=s2, t2="3/2"))
    curv = curvature_of(ConnectionSpec.preset("lc"), h, alg)
    assert not gray_check_lc(curv)
    # the R[1,1b,1,2] component is (3/8) rho t2 up to the pinned orientation
    assert curv.component(0, 3, 0, 1) == gr("9/16")


def test_gray_sii_balanced_point():
    alg = instantiate(FamilySpec.make("Sii", x="1/2"))
    h = build_metric(MetricParams.make(r2=2, s2=1, t2="3/2", v="1/5"))
    assert not gray_check_lc(curvature_of(ConnectionSpec.preset("lc"), h, alg))


def test_gray_agrees_with_kahler_like(rng):
    # the equivalence for the torsion-free connection, at random points
    reps = [("Np", {"rho": 1}), ("Ni", {"rho": 0, "lambda": 0, "D": "i"}),
            ("Si", {"A": "i"}), ("Si", {"A": "1"}), ("Siii2", {}), ("Sv", {})]
    for fid, params in reps:
        alg = instantiate(FamilySpec.make(fid, **params))
        for _ in range(2):
            h = build_metric(rand_metric(rng))
            curv = curvature_of(ConnectionSpec.preset("lc"), h, alg)
            assert gray_check_lc(curv) == kahler_like_check(curv).verdict


def test_witness_cap_and_order(rng):
    h = build_metric(rand_metric(rng))
    curv = curvature_of(ConnectionSpec.preset("bismut"), h, IWASAWA)
    full = kahler_like_check(curv, witness_cap=100)
    capped = kahler_like_check(curv, witness_cap=2)
    assert capped.n_bianchi_nonzero == full.n_bianchi_nonzero
    assert len(capped.bianchi_residues) <= 2
    assert capped.bianchi_residues == full.bianchi_residues[:len(capped.bianchi_residues)]
    # lexicographic order of the witness indices
    idxs = [idx for idx, _ in full.bianchi_residues]
    assert idxs == sorted(idxs)


def test_corrupted_kahler_like_curvature_names_exactly_the_writes(rng):
    # Chern on Iwasawa is Kahler-like; one write at a type-condition entry and one
    # at R_{i jb k lb} (which enters B(i,j,k,l) and B(k,j,i,l)) must be reported
    # exactly, with their values and counts
    h = build_metric(rand_metric(rng))
    curv = curvature_of(ConnectionSpec.preset("chern"), h, IWASAWA)
    assert kahler_like_check(curv).verdict
    r = curv.tensor.copy()
    seventh = gr("1/7")
    type_idx, b_idx = (0, 1, 3, 4), (0, 4, 2, 3)  # R[1,2,1b,2b] and R[1,2b,3,1b]
    for idx in (type_idx, b_idx):
        r[idx] = r[idx] + seventh
    bad = CurvatureTensor(curv.spec, r)
    report = kahler_like_check(bad)
    assert not report.verdict
    assert report.n_type_nonzero == 1 and report.n_bianchi_nonzero == 2
    assert report.type_residues == ((type_idx, seventh),)
    assert report.bianchi_residues == (((0, 4, 2, 3), seventh), ((2, 4, 0, 3), -seventh))
    first = min(idx for idx, v in r.nonzero())
    assert flatness_check(bad).witness == (first, r[first])


def test_verdicts_build_values_only_for_witnesses(rng, monkeypatch):
    alg = instantiate(FamilySpec.make("Nii", rho=1, B="1/2-1/3*i", c="2/3"))
    h = build_metric(rand_metric(rng))
    curv = curvature_of(ConnectionSpec.preset("lc"), h, alg)
    built = [0]

    def counted(a, b, den):
        built[0] += 1
        return numerator_value(a, b, den)

    monkeypatch.setattr(symmetry, "numerator_value", counted)
    monkeypatch.setattr(tensors, "numerator_value", counted)
    report = kahler_like_check(curv, witness_cap=100)
    flat = flatness_check(curv)
    gray = gray_check_lc(curv)
    assert not report.verdict and not flat.flat and not gray
    # one value per reported witness, and no full value list of R
    assert built[0] == len(report.type_residues) + len(report.bianchi_residues) + 1
    # the numerator tests agree with tests on the values themselves
    r = curv.tensor
    type_res = [(idx, r[idx]) for idx in all_indices(4)
                if ((idx[0] < 3 and idx[1] < 3) or (idx[2] < 3 and idx[3] < 3))
                and not r[idx].is_zero()]
    b_res = [((i, j + 3, k, l + 3), r[i, j + 3, k, l + 3] - r[k, j + 3, i, l + 3])
             for i, j, k, l in itertools.product(range(3), repeat=4)]
    b_res = [(idx, v) for idx, v in b_res if not v.is_zero()]
    assert report.type_residues == tuple(type_res[:100])
    assert report.bianchi_residues == tuple(b_res[:100])
    assert (report.n_type_nonzero, report.n_bianchi_nonzero) == (len(type_res), len(b_res))
    assert flat.witness == next(iter(r.nonzero()))


def test_the_one_spec_path_writes_no_lists(rng):
    """The one-spec path of check-kl at a non-preset eps, and the one-spec checks after it,
    read the arrays the kernel stored: neither the curvature nor the symbol table
    builds its Python-int list view."""
    alg = instantiate(FamilySpec.make("Ni", rho=1, **{"lambda": Rat(1, 2)}, D="1/3+1/2*i"))
    h = build_metric(rand_metric(rng))
    spec = ConnectionSpec.gauduchon(Rat(2, 7))
    assert spec.name is None
    table = christoffel(spec, h, alg)
    curv = curvature(table, h, alg)
    kahler_like_check(curv)
    flatness_check(curv)
    ricci_and_scalar(curv, h)
    assert curvature_symmetry_failures(curv) == [] and nabla_g_failures(table) == []
    for t in (curv.tensor, table.gamma, table.lowered):
        assert t._re is None and t._im is None
        assert isinstance(t._z, np.ndarray) and not t._z.flags.writeable
    # a value read builds the lists once, and they are the stored numerators
    assert curv.tensor.re == curv.tensor._z[0].tolist() and curv.tensor._re is not None


# -- the list-loop references of the verdicts -------------------------------------


def ref_kahler_like_check(curv, witness_cap=symmetry.DEFAULT_WITNESS_CAP):
    """The Kahler-like check as a loop over the numerator lists: every type-condition
    entry tested against zero, then every B entry as a numerator difference."""
    r = curv.tensor
    re, im = r.re, r.im
    type_res, n_type = [], 0
    for n, idx in enumerate(all_indices(4)):
        if ((idx[0] < 3 and idx[1] < 3) or (idx[2] < 3 and idx[3] < 3)) and (re[n] or im[n]):
            n_type += 1
            if len(type_res) < witness_cap:
                type_res.append((idx, numerator_value(re[n], im[n], r.den)))
    bianchi_res, n_bianchi = [], 0
    for i, j, k, l in itertools.product(range(3), repeat=4):
        p, q = flat_offset((i, j + 3, k, l + 3)), flat_offset((k, j + 3, i, l + 3))
        a, b = re[p] - re[q], im[p] - im[q]
        if a or b:
            n_bianchi += 1
            if len(bianchi_res) < witness_cap:
                bianchi_res.append(((i, j + 3, k, l + 3), numerator_value(a, b, r.den)))
    return KahlerLikeReport(n_type == 0 and n_bianchi == 0, tuple(type_res),
                            tuple(bianchi_res), n_type, n_bianchi, witness_cap)


def ref_flatness_check(curv):
    """Flatness as a loop: the first nonzero entry in lexicographic order, if any."""
    r = curv.tensor
    for n, idx in r.nonzero_offsets():
        return FlatnessResult(False, (idx, numerator_value(r.re[n], r.im[n], r.den)))
    return FlatnessResult(True, None)


def ref_gray_check_lc(curv):
    """The Gray test as a loop over R(X, Y, Z, Wb) for unbarred X, Y and any Z."""
    assert curv.spec.is_lc
    r = curv.tensor
    return not any(r.re[n] or r.im[n] for n, (i, j, k, l) in enumerate(all_indices(4))
                   if i < 3 and j < 3 and l >= 3)


CAPS = (0, 1, 8, 100)


def _verdict_mismatches(alg, h, specs):
    """Where the stacked verdicts of the point's curvature stack, or the single calls
    on the spec's stored tensor, differ from the references, at every cap in CAPS;
    returns (mismatches, stack dtype, the stack's flat and Levi-Civita flags)."""
    z, dens = curvature_stack(specs, ConnectionPlane(h, alg))
    curvs = list(map(CurvatureTensor, specs, tensors._tensors(4, z, dens)))
    bad = []
    for cap in CAPS:
        verdicts = stack_verdicts(specs, z, dens, witness_cap=cap)
        assert len(verdicts) == len(specs)
        for spec, curv, (report, flat, gray) in zip(specs, curvs, verdicts):
            want = ref_kahler_like_check(curv, cap)
            if report != want or kahler_like_check(curv, cap) != want:
                bad.append((spec.label(), cap, "kahler-like"))
            want = ref_flatness_check(curv)
            if flat != want or flatness_check(curv) != want:
                bad.append((spec.label(), "flat"))
            want = ref_gray_check_lc(curv) if spec.is_lc else None
            if gray != want or (spec.is_lc and gray_check_lc(curv) != want):
                bad.append((spec.label(), "gray"))
    flats = {flat.flat for _, flat, _ in verdicts}
    return bad, z.dtype, flats, {spec.is_lc for spec in specs}


def test_stacked_verdicts_match_the_list_loop_references():
    """On the reference grid (8 specs a point, int64) and the large grid (4 specs a
    point, object), stack_verdicts and the single calls give the references' reports
    (verdict, both counts, both witness tuples with their values) at caps 0, 1, 8
    and 100, the first nonzero entry and the Gray flag; the grids hold stacks mixing
    flat with non-flat and Levi-Civita with other connections."""
    checked = mixed_flat = 0
    dtypes = set()
    for grid in (reference_grid("verdicts"), large_grid()):
        for label, alg, h, specs in grid:
            bad, dtype, flats, lcs = _verdict_mismatches(alg, h, specs)
            assert bad == [], label
            assert lcs == {True, False}, label
            mixed_flat += flats == {True, False}
            dtypes.add(dtype)
            checked += len(specs)
    assert checked == 21 * 2 * 8 + 21 * 4
    assert dtypes == {np.dtype(np.int64), np.dtype(object)}
    assert mixed_flat >= 3


def test_verdict_counts_and_witnesses_are_python_ints(monkeypatch):
    """Every count and every numerator a witness value is built from is a Python int,
    on int64 and on object stacks, so report_to_json and repr see plain ints."""
    seen = []

    def recorded(a, b, den):
        seen.append((type(a), type(b), type(den)))
        return numerator_value(a, b, den)

    monkeypatch.setattr(symmetry, "numerator_value", recorded)
    grids = (itertools.islice(reference_grid("ints"), 0, None, 7),
             itertools.islice(large_grid(), 1, None, 3))
    dtypes = set()
    for grid in grids:
        for label, alg, h, specs in grid:
            z, dens = curvature_stack(specs, ConnectionPlane(h, alg))
            dtypes.add(z.dtype)
            for report, flat, _ in stack_verdicts(specs, z, dens, witness_cap=100):
                assert type(report.n_type_nonzero) is type(report.n_bianchi_nonzero) is int
                assert all(type(i) is int for idx, _ in report.type_residues + report.bianchi_residues
                           for i in idx), label
                report_to_json(report)
    assert seen and set(seen) == {(int, int, int)}
    assert dtypes == {np.dtype(np.int64), np.dtype(object)}
