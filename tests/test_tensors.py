import itertools
import random
from math import gcd

import pytest

from curvlab import tensors, verify
from curvlab.metric import build_metric
from curvlab.scalars import ZERO, gr
from curvlab.tensors import (
    MultiTensor,
    all_indices,
    bar,
    contract,
    identity_tensor,
    index_name,
    inverse,
)

from conftest import hermitian_point, rand_gauss


def test_bar_involution():
    for i in range(6):
        assert bar(bar(i)) == i
    assert sorted(bar(i) for i in (0, 1, 2)) == [3, 4, 5]


def test_index_names():
    assert [index_name(i) for i in range(6)] == ["1", "2", "3", "1b", "2b", "3b"]


def rand_tensor(rng, rank, entries=10):
    t = MultiTensor(rank)
    for _ in range(entries):
        idx = tuple(rng.randrange(6) for _ in range(rank))
        t[idx] = rand_gauss(rng)
    return t


def test_contract_identity(rng):
    delta = identity_tensor()
    v = rand_tensor(rng, 1)
    assert contract(delta, v, 1, 0) == v
    assert contract(v, delta, 0, 0) == v


def test_contract_metric_inverse():
    _, _, h = hermitian_point("Ni", {"rho": 1, "lambda": "1/2", "D": "1/3+1/4*i"},
                              dict(r2=2, s2=1, t2="3/2", u="1/4+1/5*i", v="1/5", z="1/6*i"))
    assert contract(h.g, h.g_inv, 1, 0) == identity_tensor()
    # torus-style identity metric too
    _, _, h1 = hermitian_point("Np", {"rho": 0}, dict(r2=1, s2=1, t2=1))
    assert contract(h1.g, h1.g_inv, 1, 0) == identity_tensor()


def test_contract_slot_errors(rng):
    t = rand_tensor(rng, 2)
    with pytest.raises(ValueError):
        contract(t, t, 2, 0)
    with pytest.raises(ValueError):
        contract(t, t, 0, -1)


def test_contract_matches_direct_sum(rng):
    # oracle: naive full double loop, for every pair of contracted slots
    for rank_t, rank_a in ((2, 3), (3, 2), (3, 3)):
        t = rand_tensor(rng, rank_t, entries=30)
        a = rand_tensor(rng, rank_a, entries=30)
        for slot_t in range(rank_t):
            for slot_a in range(rank_a):
                out = contract(t, a, slot_t, slot_a)
                assert out.rank == rank_t + rank_a - 2 and not out.is_zero()
                for idx in all_indices(out.rank):
                    rest_t, rest_a = idx[:rank_t - 1], idx[rank_t - 1:]
                    s = ZERO
                    for m in range(6):
                        s = s + (t[rest_t[:slot_t] + (m,) + rest_t[slot_t:]]
                                 * a[rest_a[:slot_a] + (m,) + rest_a[slot_a:]])
                    assert out[idx] == s, (rank_t, rank_a, slot_t, slot_a, idx)


def test_inverse_is_exact_and_rejects_a_singular_matrix(rng):
    # a dense matrix, and the Hermitian block shape [[0, G], [G^T, 0]] whose zero
    # diagonal forces row exchanges
    _, _, h = hermitian_point("Ni", {"rho": 1, "lambda": "1/2", "D": "1/3+1/4*i"},
                              dict(r2=2, s2=1, t2="3/2", u="1/4+1/5*i", v="1/5", z="1/6*i"))
    dense = MultiTensor(2)
    for idx in all_indices(2):
        dense[idx] = rand_gauss(rng)
    for m in (dense, h.g):
        inv = inverse(m)
        assert contract(m, inv, 1, 0) == identity_tensor()
        assert contract(inv, m, 1, 0) == identity_tensor()
    singular = dense.copy()
    for j in range(6):
        singular[5, j] = singular[0, j] * gr("2-i")
    with pytest.raises(ZeroDivisionError):
        inverse(singular)


def _whole_inverse(m):
    """The inverse through the 6x6 elimination, whatever the shape of m."""
    rows = [[(m.re[6 * r + c], m.im[6 * r + c]) for c in range(6)] for r in range(6)]
    return MultiTensor.from_numerators(2, *tensors._bareiss(rows, m.den)).reduced()


def _elimination_sizes(monkeypatch):
    """Record the size of every elimination inverse runs from here on."""
    sizes, bareiss = [], tensors._bareiss

    def recording(rows, den):
        sizes.append(len(rows))
        return bareiss(rows, den)

    monkeypatch.setattr(tensors, "_bareiss", recording)
    return sizes


def test_block_inverse_equals_the_whole_elimination(monkeypatch):
    """On 50 seeded metrics of every sampled shape, the 3x3 block path gives the
    6x6 elimination's numerators and denominator exactly."""
    rng = random.Random(16)
    metrics = [build_metric(verify.sample_metric(rng, shape)).g
               for shape in verify._SHAPES for _ in range(50)]
    sizes = _elimination_sizes(monkeypatch)
    for g in metrics:
        inv, whole = inverse(g), _whole_inverse(g)
        assert (inv.re, inv.im, inv.den) == (whole.re, whole.im, whole.den)
    assert sizes == [3, 6] * len(metrics)


def test_a_non_hermitian_matrix_takes_the_whole_elimination(monkeypatch):
    """A nonzero pure-type block (the flow's non-Hermitian Sii state), or a lower block
    that is not G^T, is eliminated whole, and g g^{-1} = id still holds."""
    _, _, h = hermitian_point("Sii", {"x": "1/2"}, dict(r2=2, s2=1, t2=1))
    pure = h.g.copy()
    pure[0, 0] = gr("1/10")
    pure[3, 3] = gr("1/10")
    skewed = h.g.copy()
    skewed[3, 1] = skewed[3, 1] + gr("1/5")
    sizes = _elimination_sizes(monkeypatch)
    for m in (pure, skewed):
        assert contract(m, inverse(m), 1, 0) == identity_tensor()
    assert sizes == [6, 6]


def test_a_singular_block_raises(monkeypatch):
    _, _, h = hermitian_point("Np", {"rho": 0}, dict(r2=2, s2=1, t2=1, u="1/3+1/5*i"))
    g = h.g.copy()
    for b in range(3):  # row 3 of G = (2 - i) row 1, and column 3 of G^T likewise
        g[2, b + 3] = g[0, b + 3] * gr("2-i")
        g[b + 3, 2] = g[2, b + 3]
    sizes = _elimination_sizes(monkeypatch)
    with pytest.raises(ZeroDivisionError):
        inverse(g)
    assert sizes == [3]


def test_a_broken_block_inverse_fails_the_sweep_identity_rows(monkeypatch):
    """One entry of G^{-1} moved by 1 / d fails every g-ginv-identity row of the sweep."""
    bareiss = tensors._bareiss

    def broken(rows, den):
        re, im, d = bareiss(rows, den)
        if len(rows) == 3:
            re[0] += 1
        return re, im, d

    monkeypatch.setattr(tensors, "_bareiss", broken)
    rows = [r for r in verify.structural_sweep(verify.SamplePlan(seed=0), metrics_per_structure=1,
                                               random_gauduchon=0)
            if r.name.startswith("g-ginv-identity[")]
    assert len(rows) == len(verify._SWEEP_STRUCTURES)
    assert not any(r.passed for r in rows)


def test_stored_index_tuples_match_the_product():
    for rank in range(6):
        assert all_indices(rank) == tuple(itertools.product(range(6), repeat=rank))


def test_reduced_in_lowest_terms_is_an_independent_copy(rng):
    """A tensor whose content is already 1 reduces to the same numerators and den: a
    write to the result leaves the source as it was."""
    t = rand_tensor(rng, 2)
    t[0, 1] = gr("1/3")
    t[1, 0] = gr("2/7+1/5*i")
    assert gcd(t.den, *t.re, *t.im) == 1
    before = (t.re, t.im, t.den)
    r = t.reduced()
    assert (r.re, r.im, r.den) == before
    r[0, 0] = gr("11/13")
    assert (t.re, t.im, t.den) == before
    assert r[0, 0] == gr("11/13")
    # content 2 is divided out
    doubled = MultiTensor.from_numerators(2, [2 * a for a in t.re], [2 * b for b in t.im],
                                          2 * t.den).reduced()
    assert (doubled.re, doubled.im, doubled.den) == before
