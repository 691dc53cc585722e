import itertools

import pytest

from curvlab import algebra, tensors, verify
from curvlab.algebra import LieAlgebraCx, d_is_zero, exterior_d, validate_lie_algebra
from curvlab.catalog import FamilySpec, instantiate
from curvlab.metric import build_metric
from curvlab.scalars import ONE, ZERO, gr
from curvlab.tensors import MultiTensor, all_indices, bar, flat_offset, numerator_value

from conftest import rand_gauss, rand_metric
from wedge_forms import d_component, perm_sign, wedge, wedge_component


TORUS = LieAlgebraCx.from_dphi({})
IWASAWA = LieAlgebraCx.from_dphi({2: {(0, 1): ONE}})


def brute_force_jacobi(alg):
    """Independent oracle: cyclic sum over all index combinations, in value arithmetic."""
    c = alg.c
    for i, h, k, b in all_indices(4):
        total = ZERO
        for (x, y, z) in ((i, h, k), (h, k, i), (k, i, h)):
            for a in range(6):
                total = total + c[x, y, a] * c[a, z, b]
        if not total.is_zero():
            return (i, h, k, b)
    return None


def brute_force_d(alpha, alg, idx):
    """Independent oracle: d(alpha) at one tuple in GaussianRational arithmetic.

    d(alpha)(x_0, ..., x_k) = sum over p < q of
    (-1)^(p+q) alpha([x_p, x_q], x_0, ..., without x_p, x_q, ..., x_k).
    """
    k = alpha.rank
    total = ZERO
    for p in range(k + 1):
        for q in range(p + 1, k + 1):
            rest = idx[:p] + idx[p + 1:q] + idx[q + 1:]
            acc = ZERO
            for a in range(6):
                v = alg.c[idx[p], idx[q], a]
                if not v.is_zero():
                    acc = acc + v * alpha[(a,) + rest]
            total = total + acc if (p + q) % 2 == 0 else total - acc
    return total


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
    i, h, k = skew.witness
    assert skew.residue == c[h, i, k] + c[i, h, k] == gr(2)


def test_validate_jacobi_failure():
    # brackets [e1,e2]=e3, [e1,e3]=e1 violate Jacobi
    alg = LieAlgebraCx.from_structure_constants({(0, 1, 2): ONE, (0, 2, 0): ONE})
    rep = validate_lie_algebra(alg)
    assert not rep.passed
    jacobi = next(ch for ch in rep.failures() if ch.name == "jacobi")
    assert brute_force_jacobi(alg) is not None
    assert jacobi.witness == brute_force_jacobi(alg)
    i, h, k, b = jacobi.witness
    c = alg.c
    expected = ZERO
    for (x, y, z) in ((i, h, k), (h, k, i), (k, i, h)):
        for a in range(6):
            expected = expected + c[x, y, a] * c[a, z, b]
    assert jacobi.residue == expected


def test_reality_check_catches_missing_conjugate():
    c = MultiTensor(3)
    c[0, 1, 2] = ONE
    c[1, 0, 2] = -ONE  # skew but no barred counterpart
    rep = validate_lie_algebra(LieAlgebraCx(c))
    reality = next(ch for ch in rep.checks if ch.name == "reality")
    assert not reality.passed
    i, h, k = reality.witness
    assert reality.residue == c[bar(i), bar(h), bar(k)] - c[i, h, k].conjugate()
    assert not reality.residue.is_zero()


def brute_force_skew(c):
    """Independent oracle: the first nonzero c_{IH}^K, lexicographically, with
    c_{HI}^K != -c_{IH}^K, and c_{HI}^K + c_{IH}^K there; None when c is skew."""
    for i, h, k in all_indices(3):
        v = c[i, h, k]
        if not v.is_zero() and c[h, i, k] != -v:
            return (i, h, k), c[h, i, k] + v
    return None


def brute_force_reality(c):
    """Independent oracle: the first c_{IH}^K, zero or not, with c_{bar I bar H}^{bar K}
    != conj c_{IH}^K, and their difference there; None when c is real."""
    for idx in all_indices(3):
        partner = c[tuple(map(bar, idx))]
        if partner != c[idx].conjugate():
            return idx, partner - c[idx].conjugate()
    return None


def jacobiator(c, i, h, k, b):
    """The cyclic sum of c_{xy}^a c_{az}^b over (x, y, z) = (i, h, k), (h, k, i), (k, i, h)."""
    total = ZERO
    for (x, y, z) in ((i, h, k), (h, k, i), (k, i, h)):
        for a in range(6):
            total = total + c[x, y, a] * c[a, z, b]
    return total


def assert_checks_match_brute_force(alg):
    """Every check of validate_lie_algebra has the brute-force witness and residue."""
    rep = {ch.name: ch for ch in validate_lie_algebra(alg).checks}
    jac = brute_force_jacobi(alg)
    want = {"skew": brute_force_skew(alg.c), "reality": brute_force_reality(alg.c),
            "jacobi": jac and (jac, jacobiator(alg.c, *jac))}
    for name, expected in want.items():
        check = rep[name]
        assert check.passed == (expected is None), name
        assert (check.witness, check.residue) == (expected or (None, None)), name


def test_jacobi_scans_every_triple_without_skewness(rng):
    """On a non-skew c the Jacobi check takes its all-triples branch: its first failure,
    at the non-increasing (1, 1, 2, 2) (0-based (0, 0, 1, 1)), is brute_force_jacobi's."""
    c = MultiTensor(3)
    c[1, 0, 1] = ONE
    alg = LieAlgebraCx(c)
    assert brute_force_jacobi(alg) == (0, 0, 1, 1)
    assert_checks_match_brute_force(alg)
    # and on a random non-skew, non-real c
    for _ in range(3):
        c = MultiTensor(3)
        for _ in range(8):
            c[tuple(rng.randrange(6) for _ in range(3))] = rand_gauss(rng)
        assert_checks_match_brute_force(LieAlgebraCx(c))


def test_reality_witness_is_the_first_offset_even_when_zero():
    """Only c_{1b 2b}^{3b} and its skew partner are set: the first failing offset is
    the zero entry (1, 2, 3), whose conjugate partner is nonzero."""
    c = MultiTensor(3)
    c[3, 4, 5] = gr("2+i")
    c[4, 3, 5] = -gr("2+i")
    alg = LieAlgebraCx(c)
    reality = next(ch for ch in validate_lie_algebra(alg).checks if ch.name == "reality")
    assert reality.witness == (0, 1, 2) and reality.residue == gr("2+i")
    assert_checks_match_brute_force(alg)


def test_checks_and_d_stay_exact_beyond_int64(rng):
    """Numerators above 2^62 in c and in a 2-form: exterior_d, d_is_zero and every
    check of validate_lie_algebra still equal the value-arithmetic references."""
    big = 2 ** 70 + 3
    alg = LieAlgebraCx.from_structure_constants({(0, 1, 2): gr(f"{big}/7"), (0, 2, 0): ONE,
                                                 (1, 2, 4): gr(f"{big}*i")})
    assert tensors._arrays(alg.c)[1].bit_length() > 62
    assert_checks_match_brute_force(alg)
    skewless = alg.c.copy()
    skewless[1, 0, 2] = gr(big)
    assert_checks_match_brute_force(LieAlgebraCx(skewless))
    two = MultiTensor(2)
    for i, j in itertools.combinations(range(6), 2):
        v = rand_gauss(rng) * gr(big)
        two[i, j] = v
        two[j, i] = -v
    assert tensors._arrays(two)[1].bit_length() > 62
    for alpha in (two, exterior_d(one_form(2), alg)):
        d = exterior_d(alpha, alg)
        expected = {idx: brute_force_d(alpha, alg, idx) for idx in all_indices(alpha.rank + 1)}
        assert all(d[idx] == value for idx, value in expected.items())
        assert d_is_zero(alpha, alg) == all(v.is_zero() for v in expected.values())
    assert not d_is_zero(two, alg)


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
    # a negative index would otherwise be read from the end of the numerator lists
    for bad in ((0, 1), (0, 1, -1), (0, 1, 6)):
        with pytest.raises(ValueError):
            d_component(alpha, alg, bad)


def test_exterior_d_matches_full_enumeration(rng):
    # exterior_d evaluates sorted tuples only and shares its kernel sums with
    # d_is_zero; brute_force_d over every 6^(k+1) tuple is the reference, and
    # d_component (the Python-int reference) must agree, for omega, a generic
    # 2-form, a 3-form and a closed 3-form
    structures = (FamilySpec.make("Sv"), FamilySpec.make("Nii", rho=1, B="1/2-1/3*i", c="2/3"),
                  FamilySpec.make("sl2c"))
    for spec in structures:
        alg = instantiate(spec)
        two = MultiTensor(2)
        for i, j in itertools.combinations(range(6), 2):
            v = rand_gauss(rng)
            two[i, j] = v
            two[j, i] = -v
        omega = build_metric(rand_metric(rng)).omega
        forms = (omega, two, wedge(one_form(0), two), exterior_d(two, alg))
        for alpha in forms:
            d = exterior_d(alpha, alg)
            expected = {idx: brute_force_d(alpha, alg, idx)
                        for idx in all_indices(alpha.rank + 1)}
            for idx, value in expected.items():
                assert d[idx] == value
                assert d_component(alpha, alg, idx) == value
            assert d_is_zero(alpha, alg) == all(v.is_zero() for v in expected.values())
            assert d.is_zero() == d_is_zero(alpha, alg)
        # a generic 2-form is not closed, a d-exact form is
        assert not d_is_zero(two, alg) and d_is_zero(forms[3], alg)


def test_conjugate_table_matches_bar():
    assert algebra._CONJUGATE.tolist() == [flat_offset((bar(i), bar(h), bar(k)))
                                           for i, h, k in all_indices(3)]
    assert algebra._SWAP.tolist() == [flat_offset((h, i, k)) for i, h, k in all_indices(3)]


def _rand_skew(rng, rank):
    """A random skew rank-form: a value per sorted tuple, the others by the parity of
    their inversions."""
    t = MultiTensor(rank)
    for idx in itertools.combinations(range(6), rank):
        v = rand_gauss(rng)
        for perm in itertools.permutations(idx):
            odd = sum(a > b for a, b in itertools.combinations(perm, 2)) % 2
            t[perm] = -v if odd else v
    return t


def test_d_tables_match_brute_force_d(rng):
    """At each rank 0-4: each sorted tuple's kernel sum is brute_force_d there, and
    each entry of exterior_d, read at the fill table, is the permuted tuple's value
    times the sign of its permutation (zero at a repeated index)."""
    alg = instantiate(FamilySpec.make("Nii", rho=1, B="1/2-1/3*i", c="2/3"))
    for n in range(1, 6):
        alpha = _rand_skew(rng, n - 1)
        tuples = algebra._d_tables(n)[0]
        assert tuples == tuple(itertools.combinations(range(6), n))
        z, den = algebra._d_sums(alpha, alg.c)
        values = [numerator_value(*z[:, t].tolist(), den) for t in range(len(tuples))]
        for idx, value in zip(tuples, values):
            assert value == brute_force_d(alpha, alg, idx) == d_component(alpha, alg, idx)
        d = exterior_d(alpha, alg)
        for idx in all_indices(n):
            if len(set(idx)) < n:
                assert d[idx].is_zero(), idx
                continue
            order = sorted(range(n), key=idx.__getitem__)
            value = values[tuples.index(tuple(sorted(idx)))]
            assert d[idx] == perm_sign(order) * value, idx
        # d of a function is zero; d of a generic form of rank 1-4 is not
        assert all(v.is_zero() for v in values) == (n == 1)


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


def ref_structure_constants(entries):
    """The structure-constant tensor written one entry at a time, each write putting the
    tensor over the lcm of its denominator and the value's."""
    c = MultiTensor(3)
    for (i, h, k), raw in entries.items():
        v = gr(raw)
        if v.is_zero():
            continue
        for (a, b, k2, w) in ((i, h, k, v), (bar(i), bar(h), bar(k), v.conjugate())):
            c[a, b, k2] = w
            c[b, a, k2] = -w
    return c


def test_structure_constants_match_the_per_entry_build(monkeypatch):
    """from_structure_constants, built once from its collected values, has the
    numerators and denominator of the per-entry build: on every structure of the
    structural sweep and on 3 seeded draws of every scoreboard case."""
    seen = []
    build = LieAlgebraCx.from_structure_constants.__func__

    def spy(cls, entries):
        seen.append((entries, build(cls, entries)))
        return seen[-1][1]

    monkeypatch.setattr(LieAlgebraCx, "from_structure_constants", classmethod(spy))
    for family_id, params in verify._SWEEP_STRUCTURES:
        instantiate(FamilySpec.make(family_id, **params))
    plan = verify.SamplePlan(seed=0)
    for case in verify.THEOREM_CASES:
        rng = plan.rng_for(f"structure constants:{case.case_id}")
        for _ in range(3):
            instantiate(verify._point_for(case, rng)[0])
    assert len(seen) == len(verify._SWEEP_STRUCTURES) + 3 * len(verify.THEOREM_CASES)
    for entries, alg in seen:
        want = ref_structure_constants(entries)
        assert (alg.c.re, alg.c.im, alg.c.den) == (want.re, want.im, want.den), entries
