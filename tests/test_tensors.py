import pytest

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


def rand_tensor(rng, rank):
    t = MultiTensor(rank)
    for _ in range(10):
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
    # oracle: naive full double loop
    a = rand_tensor(rng, 2)
    b = rand_tensor(rng, 3)
    out = contract(a, b, 1, 0)
    assert out.rank == 3
    for idx in all_indices(3):
        i, k, l = idx
        s = ZERO
        for m in range(6):
            s = s + a[i, m] * b[m, k, l]
        assert out[idx] == s


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
