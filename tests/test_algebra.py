import itertools

from curvlab.algebra import (
    LieAlgebraCx,
    d_component,
    d_is_zero,
    exterior_d,
    form_type_project,
    validate_lie_algebra,
    wedge,
    wedge_component,
)
from curvlab.catalog import FamilySpec, instantiate
from curvlab.scalars import ONE, ZERO, gr
from curvlab.tensors import MultiTensor, all_indices

from conftest import rand_gauss


TORUS = LieAlgebraCx.from_dphi({})
IWASAWA = LieAlgebraCx.from_dphi({2: {(0, 1): ONE}})


def brute_force_jacobi(alg):
    """Independent oracle: cyclic sum over all index combinations, no row caching."""
    c = alg.c
    for i, h, k, b in all_indices(4):
        total = ZERO
        for (x, y, z) in ((i, h, k), (h, k, i), (k, i, h)):
            for a in range(6):
                total = total + c[x, y, a] * c[a, z, b]
        if not total.is_zero():
            return (i, h, k, b)
    return None


def test_validate_torus():
    assert validate_lie_algebra(TORUS).passed


def test_validate_iwasawa_and_oracle():
    rep = validate_lie_algebra(IWASAWA)
    assert rep.passed
    assert brute_force_jacobi(IWASAWA) is None
    # structure constants read off d(phi^3) = phi^1 ^ phi^2
    assert IWASAWA.c[0, 1, 2] == gr(-1)
    assert IWASAWA.c[1, 0, 2] == gr(1)
    assert IWASAWA.c[3, 4, 5] == gr(-1)


def test_validate_skew_failure_witness():
    c = MultiTensor(3)
    c[0, 1, 2] = ONE
    c[1, 0, 2] = ONE  # breaks skewness at (2,1,3) in 1-based labels
    rep = validate_lie_algebra(LieAlgebraCx(c))
    assert not rep.passed
    failing = {ch.name for ch in rep.failures()}
    assert "skew" in failing
    skew = next(ch for ch in rep.failures() if ch.name == "skew")
    assert skew.witness in ((0, 1, 2), (1, 0, 2))
    assert not skew.residue.is_zero()


def test_validate_jacobi_failure():
    # brackets [e1,e2]=e3, [e1,e3]=e1 violate Jacobi
    alg = LieAlgebraCx.from_structure_constants({(0, 1, 2): ONE, (0, 2, 0): ONE})
    rep = validate_lie_algebra(alg)
    assert not rep.passed
    jacobi = next(ch for ch in rep.failures() if ch.name == "jacobi")
    assert brute_force_jacobi(alg) is not None
    assert jacobi.witness == brute_force_jacobi(alg)


def test_reality_check_catches_missing_conjugate():
    c = MultiTensor(3)
    c[0, 1, 2] = ONE
    c[1, 0, 2] = -ONE  # skew but no barred counterpart
    rep = validate_lie_algebra(LieAlgebraCx(c))
    assert any(ch.name == "reality" and not ch.passed for ch in rep.checks)


def one_form(i):
    t = MultiTensor(1)
    t[i] = ONE
    return t


def test_exterior_d_torus():
    for i in range(6):
        assert exterior_d(one_form(i), TORUS).is_zero()


def test_exterior_d_iwasawa():
    # d(phi^3) = phi^1 ^ phi^2 under the evaluation convention
    # phi^1 ^ phi^2 (phi_1, phi_2) = 1
    d3 = exterior_d(one_form(2), IWASAWA)
    assert d3[0, 1] == ONE
    assert d3[1, 0] == -ONE
    assert d3[3, 4].is_zero()
    # and the conjugate equation for the barred coframe
    d3b = exterior_d(one_form(5), IWASAWA)
    assert d3b[3, 4] == ONE


def test_one_form_d_matches_definition(rng):
    # oracle: d(alpha)(x, y) = -alpha([x, y]) evaluated directly
    alg = instantiate(FamilySpec.make("Ni", rho=1, **{"lambda": "1/2"}, D="1/3+2/5*i"))
    alpha = MultiTensor(1)
    for i in range(6):
        alpha[i] = rand_gauss(rng)
    d = exterior_d(alpha, alg)
    for x, y in all_indices(2):
        expected = ZERO
        for k in range(6):
            expected = expected - alpha[k] * alg.c[x, y, k]
        assert d[x, y] == expected


def test_two_form_d_matches_cyclic_formula(rng):
    # oracle: d(omega)(x,y,z) = -omega([x,y],z) + omega([x,z],y) - omega([y,z],x)
    alg = instantiate(FamilySpec.make("Sv"))
    om = MultiTensor(2)
    for i in range(6):
        for j in range(i + 1, 6):
            v = rand_gauss(rng)
            om[i, j] = v
            om[j, i] = -v
    d = exterior_d(om, alg)
    for x, y, z in all_indices(3):
        expected = ZERO
        for k in range(6):
            expected = (expected
                        - alg.c[x, y, k] * om[k, z]
                        + alg.c[x, z, k] * om[k, y]
                        - alg.c[y, z, k] * om[k, x])
        assert d[x, y, z] == expected


def test_d_squared_zero_ni_generic():
    alg = instantiate(FamilySpec.make("Ni", rho=1, **{"lambda": 2}, D="-1/2+1/3*i"))
    d3 = exterior_d(one_form(2), alg)
    assert exterior_d(d3, alg).is_zero()
    assert d_is_zero(d3, alg)


def test_d_component_matches_full():
    alg = instantiate(FamilySpec.make("Sii", x="1/2"))
    alpha = exterior_d(one_form(1), alg)
    full = exterior_d(alpha, alg)
    for idx in itertools.combinations(range(6), 3):
        assert d_component(alpha, alg, idx) == full[idx]


def test_exterior_d_matches_full_enumeration(rng):
    # exterior_d evaluates sorted tuples only; d_component over every 6^(k+1)
    # tuple is the reference, for a generic 2-form and a 3-form
    alg = instantiate(FamilySpec.make("Sv"))
    two = MultiTensor(2)
    for i, j in itertools.combinations(range(6), 2):
        v = rand_gauss(rng)
        two[i, j] = v
        two[j, i] = -v
    three = wedge(one_form(0), two)
    for alpha in (two, three):
        d = exterior_d(alpha, alg)
        assert not d.is_zero()
        for idx in all_indices(alpha.rank + 1):
            assert d[idx] == d_component(alpha, alg, idx)


def test_wedge_determinant_convention():
    w = wedge(one_form(0), one_form(1))
    assert w[0, 1] == ONE
    assert w[1, 0] == -ONE
    # associativity sanity on a triple wedge
    w3 = wedge(w, one_form(2))
    assert w3[0, 1, 2] == ONE
    assert w3[2, 1, 0] == -ONE
    assert wedge(one_form(0), wedge(one_form(1), one_form(2))) == w3


def test_wedge_component_matches_full(rng):
    a = MultiTensor(2)
    for _ in range(6):
        i, j = rng.randrange(6), rng.randrange(6)
        if i == j:
            continue
        v = rand_gauss(rng)
        a[i, j] = v
        a[j, i] = -v
    b = exterior_d(one_form(2), IWASAWA)
    full = wedge(a, b)
    for idx in itertools.combinations(range(6), 4):
        assert wedge_component(a, b, idx) == full[idx]


def test_form_type_project():
    om = MultiTensor(2)
    om[0, 1] = ONE
    om[1, 0] = -ONE
    om[0, 4] = gr(2)
    om[4, 0] = gr(-2)
    pure = form_type_project(om, 0)
    mixed = form_type_project(om, 1)
    assert pure[0, 1] == ONE and pure[0, 4].is_zero()
    assert mixed[0, 4] == gr(2) and mixed[0, 1].is_zero()
