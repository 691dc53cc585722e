import random
from fractions import Fraction

import pytest

from curvlab.algebra import exterior_d, validate_lie_algebra
from curvlab.catalog import (
    FAMILY_IDS,
    FamilyDomainError,
    FamilySpec,
    algebra_label,
    catalog_rows,
    instantiate,
    special_metric_loci,
)
from curvlab.metric import MetricParams, build_metric, classify_metric, torsion_forms
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
        ("Np", {"rho": 1, "lambda": 2}, "unknown parameter(s) lambda; accepted: rho"),
        ("sl2c", {"A": 5}, "unknown parameter(s) A; accepted: none"),
        ("Nii", {"rho": 1, "B": 0, "c": 1, "b": 0, "C": 0},
         "unknown parameter(s) C, b; accepted: rho, B, c"),
    ]
    for fid, params, fragment in cases:
        for query in (instantiate, special_metric_loci):
            with pytest.raises(FamilyDomainError) as err:
                query(FamilySpec.make(fid, **params))
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
    # non-empty balanced loci: s2 = 2 r2, and rows that carry lambda and D
    ("Ni", {"rho": 1, "lambda": 0, "D": "-2"}),
    ("Ni", {"rho": 0, "lambda": 2, "D": "-1+1/10*i"}),
]

# the base metric (r2, s2, t2) = (30, 31, 33), u = v = z = 0, in the cleared
# coordinates (r2, s2, t2, Re u, Im u, Re v, Im v, Re z, Im z) of the loci
BASE = (30, 31, 33, 0, 0, 0, 0, 0, 0)


def _q(a):
    return Fraction(int(a.numerator), int(a.denominator))


def _params(x):
    r2, s2, t2, ur, ui, vr, vi, zr, zi = (Rat(q.numerator, q.denominator) for q in x)
    return MetricParams(r2, s2, t2, GaussianRational(ur, ui), GaussianRational(vr, vi),
                        GaussianRational(zr, zi))


def _rref(rows):
    """The reduced row echelon form of rational rows, zero rows dropped; canonical for
    the row space, so two systems have one solution space iff their forms are equal.

    Pivots are taken from the last column back, so r2, s2 and t2 stay free where
    they can and _draw solves for the off-diagonal coordinates.
    """
    rows = list({tuple(_q(a) for a in row) for row in rows})
    out = []
    for col in reversed(range(len(BASE))):
        k = next((k for k, row in enumerate(rows) if row[col]), None)
        if k is None:
            continue
        pivot = rows.pop(k)
        pivot = [a / pivot[col] for a in pivot]
        rows = [[a - row[col] * b for a, b in zip(row, pivot)] for row in rows]
        out = [[a - row[col] * b for a, b in zip(row, pivot)] for row in out] + [pivot]
    return [tuple(row) for row in out]


def _misses_the_cone(eqs):
    """Whether a reduced equation reads a r2 + b s2 + c t2 = 0 with a, b, c >= 0, not all 0.

    No positive metric solves such a system, since r2, s2, t2 > 0 there.
    """
    return any(not any(row[3:]) and min(row[:3]) >= 0 for row in eqs)


def _pivot(row):
    """The pivot column of a reduced row: its last nonzero entry, 1, and 0 in every other row."""
    return max(k for k, a in enumerate(row) if a)


def _draw(eqs, rng):
    """A point of the solution space of the reduced system eqs: the free coordinates are
    BASE's plus a small random step, and each pivot coordinate is solved from them."""
    x = [b + Fraction(rng.randint(-3, 3), 7) for b in BASE]
    for row in eqs:
        p = _pivot(row)
        x[p] = -sum(a * x[k] for k, a in enumerate(row) if k != p)
    return x


def _c_and_dt(x, alg):
    """The numerators of C and of dT at the metric x, real parts then imaginary, each
    with its denominator."""
    t, c = torsion_forms(build_metric(_params(x)), alg)
    return [(f.re + f.im, f.den) for f in (c, exterior_d(t, alg))]


@pytest.mark.parametrize("fid,params", LOCUS_CASES)
def test_kahler_and_pluriclosed_loci_are_the_kernels_of_c_and_dt(fid, params):
    """The declared Kahler and pluriclosed loci are ker C and ker dT on the positive cone.

    C and dT are homogeneous-linear in the nine metric coordinates: omega is linear
    in them, and d and the torsion forms are linear in omega.  So each map is read
    off the base metric and base + e_k; its kernel is the solution space of its
    rows.  A declared locus must have the same solution space, or, where it is
    "none" (no positive solution), so must the kernel.
    """
    fam = FamilySpec.make(fid, **params)
    alg = instantiate(fam)
    loci = special_metric_loci(fam)
    points = [BASE] + [[b + (j == k) for j, b in enumerate(BASE)] for k in range(len(BASE))]
    values = [_c_and_dt(x, alg) for x in points]
    for which, locus in enumerate((loci[0], loci[2])):
        # an entry that is zero at all ten points is zero on the whole map
        nums = [v[which] for v in values]
        support = [n for n in range(len(nums[0][0])) if any(num[n] for num, _ in nums)]
        at_base, *shifted = [[Fraction(num[n], den) for n in support] for num, den in nums]
        cols = [[a - b for a, b in zip(col, at_base)] for col in shifted]
        # homogeneous: the map at the base is the combination of its columns
        assert at_base == [sum(b * col[n] for b, col in zip(BASE, cols))
                           for n in range(len(support))]
        kernel = _rref(zip(*cols))
        declared = _rref(locus.equations)
        if _misses_the_cone(declared):
            assert _misses_the_cone(kernel), (fid, locus.kind, "declared none, kernel", kernel)
        else:
            assert declared == kernel, (fid, locus.kind, locus.description, kernel)


@pytest.mark.parametrize("fid,params", LOCUS_CASES)
def test_locus_classifier_agreement(fid, params):
    """Points drawn on and off the balanced locus classify as it says.

    At each drawn point every locus that holds there, and every iff locus, agrees
    with the classifier too.  A draw is never rejected: a drawn point that is not
    a positive metric fails the test.
    """
    rng = random.Random(f"locus:{fid}:{sorted(params.items())!r}")
    fam = FamilySpec.make(fid, **params)
    alg = instantiate(fam)
    loci = special_metric_loci(fam)
    assert [l.kind for l in loci] == ["kahler", "balanced", "pluriclosed"]
    balanced = loci[1]
    eqs = _rref(balanced.equations)
    empty = _misses_the_cone(eqs)
    on = [] if empty else [_params(_draw(eqs, rng)) for _ in range(5)]
    off = []
    for n in range(5 if balanced.iff and eqs else 0):
        # just off the locus, by one moved pivot coordinate; anywhere if it is empty
        x = _draw([] if empty else eqs, rng)
        if not empty:
            x[_pivot(eqs[n % len(eqs)])] += Fraction(rng.choice((-1, 1)), 5)
        off.append(_params(x))
    for points, inside in ((on, True), (off, False)):
        for p in points:
            assert not p.constraint_failures() and balanced.contains(p) == inside, (fid, p)
            flags = classify_metric(build_metric(p), alg)
            for locus in loci:
                if locus.iff or locus.contains(p):
                    assert getattr(flags, locus.kind) == locus.contains(p), (fid, locus.kind, p)


def test_sl2c_has_no_recorded_loci():
    assert special_metric_loci(FamilySpec.make("sl2c")) == []
