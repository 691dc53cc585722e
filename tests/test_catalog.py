import random

import pytest

from curvlab.algebra import validate_lie_algebra
from curvlab.catalog import (
    FAMILY_IDS,
    FamilyDomainError,
    FamilySpec,
    algebra_label,
    catalog_rows,
    instantiate,
    special_metric_loci,
)
from curvlab.metric import MetricParams, build_metric, classify_metric
from curvlab.scalars import GaussianRational, Rat, gr



def draw_params(fid, rng):
    """Random in-domain structure parameters for each family."""
    if fid == "Np":
        return {"rho": rng.choice((0, 1))}
    if fid == "Ni":
        return {"rho": rng.choice((0, 1)),
                "lambda": Rat(rng.randint(0, 4), rng.randint(1, 3)),
                "D": GaussianRational(Rat(rng.randint(-4, 4), rng.randint(1, 3)),
                                      Rat(rng.randint(0, 4), rng.randint(1, 3)))}
    if fid == "Nii":
        while True:
            p = {"rho": rng.choice((0, 1)),
                 "B": GaussianRational(Rat(rng.randint(-3, 3), 2), Rat(rng.randint(-3, 3), 2)),
                 "c": Rat(rng.randint(0, 3), rng.randint(1, 2))}
            if p["rho"] or not gr(p["B"]).is_zero() or p["c"] != 0:
                return p
    if fid == "Niii":
        return {"rho": rng.choice((0, 1)), "sign": rng.choice((1, -1))}
    if fid == "Si":
        return {"A": rng.choice(("1", "i", "3/5+4/5*i", "-3/5+4/5*i", "5/13+12/13*i"))}
    if fid == "Sii":
        return {"x": Rat(rng.randint(1, 9), rng.randint(1, 4))}
    if fid in ("Siii1", "Siii4"):
        return {"sign": rng.choice((1, -1))}
    if fid == "Siv2":
        return {"x": rng.choice((0, 1))}
    if fid == "Siv3":
        return {"A": rng.choice(("2", "1/2", "1+i", "1/3*i", "-3/2+1/2*i"))}
    return {}


@pytest.mark.parametrize("fid", FAMILY_IDS)
def test_every_family_instantiates_and_validates(fid):
    rng = random.Random(f"catalog:{fid}")
    for _ in range(10):
        f = FamilySpec.make(fid, **draw_params(fid, rng))
        alg = instantiate(f)
        assert validate_lie_algebra(alg).passed


@pytest.mark.parametrize("fid", FAMILY_IDS)
def test_every_family_is_integrable(fid):
    # [phi_i, phi_j] has no barred part: c_{ij}^{kb} = 0 for unbarred i, j, k.  The
    # torsion-form classification (pluriclosed as dT = 0) relies on it.
    rng = random.Random(f"integrable:{fid}")
    for _ in range(10):
        alg = instantiate(FamilySpec.make(fid, **draw_params(fid, rng)))
        assert all(alg.c[i, j, k + 3].is_zero()
                   for i in range(3) for j in range(3) for k in range(3)), fid


def test_torus_is_abelian():
    alg = instantiate(FamilySpec.make("Np", rho=0))
    assert alg.c.is_zero()


def test_si_structure_equations():
    # d(phi^1) = A phi^13 + A phi^{1 3b} encodes c_{13}^1 = c_{1 3b}^1 = -A
    a = gr("i")
    alg = instantiate(FamilySpec.make("Si", A="i"))
    assert alg.c[0, 2, 0] == -a
    assert alg.c[0, 5, 0] == -a
    assert alg.c[1, 2, 1] == a
    assert alg.c[3, 5, 3] == -a.conjugate()


def test_sl2c_structure_constants():
    alg = instantiate(FamilySpec.make("sl2c"))
    assert alg.c[1, 2, 0] == gr(-1)
    assert alg.c[0, 2, 1] == gr(1)
    assert alg.c[0, 1, 2] == gr(-1)


def test_domain_rejections():
    cases = [
        ("Np", {"rho": 2}, "rho in {0, 1}"),
        ("Ni", {"rho": 0, "lambda": -1, "D": 0}, "lambda"),
        ("Ni", {"rho": 0, "lambda": 0, "D": "-i"}, "Im D"),
        ("Nii", {"rho": 0, "B": 0, "c": 0}, "(rho, B, c) != (0, 0, 0)"),
        ("Niii", {"rho": 1, "sign": 2}, "sign"),
        ("Si", {"A": "2"}, "|A| = 1"),
        ("Si", {"A": "-1"}, "A != -1"),
        ("Si", {"A": "3/5-4/5*i"}, "Im A >= 0"),
        ("Sii", {"x": 0}, "x"),
        ("Siv2", {"x": 2}, "x in {0, 1}"),
        ("Siv3", {"A": "3/5+4/5*i"}, "|A| != 1"),
        ("Ni", {"rho": 0}, "lambda"),  # missing parameter
    ]
    for fid, params, fragment in cases:
        with pytest.raises(FamilyDomainError) as err:
            instantiate(FamilySpec.make(fid, **params))
        assert fragment in str(err.value)


def test_unknown_family():
    with pytest.raises(FamilyDomainError):
        instantiate(FamilySpec.make("Nx"))


def test_algebra_labels():
    assert algebra_label(FamilySpec.make("Np", rho=0)) == "h1"
    assert algebra_label(FamilySpec.make("Np", rho=1)) == "h5"
    assert algebra_label(FamilySpec.make("Ni", rho=0, **{"lambda": 0}, D="i")) == "h2"
    assert algebra_label(FamilySpec.make("Ni", rho=0, **{"lambda": 0}, D=0)) == "h8"
    assert algebra_label(FamilySpec.make("Si", A="i")) == "g2^0"
    assert algebra_label(FamilySpec.make("Si", A="1")) == "g1"
    assert "3/4" in algebra_label(FamilySpec.make("Si", A="3/5+4/5*i"))


def test_catalog_rows_cover_all_families():
    rows = catalog_rows()
    assert [r[0] for r in rows] == list(FAMILY_IDS)
    assert all(len(r) == 3 for r in rows)


def on_locus_points(locus, fam, rng, n=5):
    """Sample n valid metric points satisfying the locus predicate."""
    out = []
    guard = 0
    while len(out) < n:
        guard += 1
        assert guard < 4000, f"cannot sample on-locus points for {locus.kind}"
        p = _shaped_point(locus, fam, rng)
        if p is None:
            continue
        if not p.constraint_failures() and locus.predicate(p):
            out.append(p)
    return out


def _shaped_point(locus, fam, rng):
    # draw from shapes likely to satisfy or violate each predicate
    r2, s2, t2 = (Rat(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(3))
    pick = rng.randrange(4)
    small = lambda: GaussianRational(Rat(rng.randint(-2, 2), 5), Rat(rng.randint(-2, 2), 5))
    if pick == 0:
        return MetricParams(r2, s2, t2, GaussianRational(0), GaussianRational(0),
                            GaussianRational(0))
    if pick == 1:
        return MetricParams(r2, s2, t2, small(), GaussianRational(0), GaussianRational(0))
    if pick == 2:
        return MetricParams(r2, s2, s2, GaussianRational(Rat(rng.randint(-2, 2), 5)),
                            GaussianRational(0), GaussianRational(0))
    return MetricParams(r2, s2, t2, small(), small(), small())


LOCUS_CASES = [
    ("Np", {"rho": 0}),
    ("Np", {"rho": 1}),
    ("Ni", {"rho": 0, "lambda": 0, "D": "i"}),
    ("Ni", {"rho": 0, "lambda": 0, "D": "1"}),
    ("Niii", {"rho": 0, "sign": 1}),
    ("Niii", {"rho": 1, "sign": -1}),
    ("Si", {"A": "i"}),
    ("Si", {"A": "3/5+4/5*i"}),
    ("Sii", {"x": "1/2"}),
    ("Siii1", {"sign": 1}),
    ("Siii2", {}),
    ("Siii3", {}),
    ("Siii4", {"sign": -1}),
    ("Siv1", {}),
    ("Siv2", {"x": 1}),
    ("Siv3", {"A": "2"}),
    ("Sv", {}),
]


@pytest.mark.parametrize("fid,params", LOCUS_CASES)
def test_locus_classifier_agreement(fid, params):
    """On-locus points classify positively; off-locus points negatively (iff loci)."""
    rng = random.Random(f"locus:{fid}:{sorted(params.items())!r}")
    fam = FamilySpec.make(fid, **params)
    alg = instantiate(fam)
    loci = special_metric_loci(fam)
    assert {l.kind for l in loci} == {"kahler", "balanced", "pluriclosed"}
    for locus in loci:
        on, off = [], []
        guard = 0
        while (len(on) < 5 or len(off) < 5) and guard < 6000:
            guard += 1
            p = _shaped_point(locus, fam, rng)
            if p.constraint_failures():
                continue
            (on if locus.predicate(p) else off).append(p)
        for p in on[:5]:
            flags = classify_metric(build_metric(p), alg)
            assert getattr(flags, locus.kind), (fid, locus.kind, "on-locus point misclassified")
        if locus.iff:
            for p in off[:5]:
                flags = classify_metric(build_metric(p), alg)
                assert not getattr(flags, locus.kind), (fid, locus.kind,
                                                        "off-locus point misclassified")


def test_sl2c_has_no_recorded_loci():
    assert special_metric_loci(FamilySpec.make("sl2c")) == []
