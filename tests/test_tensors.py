import pytest

from curvlab.scalars import I, ONE, ZERO, gr
from curvlab.tensors import (
    MultiTensor,
    all_indices,
    antisymmetrize,
    bar,
    contract,
    identity_tensor,
    index_name,
    inverse,
    tensor_conjugate,
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


def test_conjugate_involution_random(rng):
    for rank in (1, 2, 3, 4):
        t = rand_tensor(rng, rank)
        assert tensor_conjugate(tensor_conjugate(t)) == t


def test_conjugate_examples():
    zero = MultiTensor(2)
    assert tensor_conjugate(zero).is_zero()

    t = MultiTensor(1)
    t[0] = I
    out = tensor_conjugate(t)
    assert out[3] == -I
    assert sum(1 for _, _v in out.nonzero()) == 1


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


def test_antisymmetrize():
    # e^1 (x) e^2 -> (e^1 (x) e^2 - e^2 (x) e^1) / 2
    t = MultiTensor(2)
    t[0, 1] = ONE
    out = antisymmetrize(t, (0, 1))
    assert out[0, 1] == gr("1/2")
    assert out[1, 0] == gr("-1/2")

    sym = MultiTensor(2)
    sym[0, 1] = sym[1, 0] = ONE
    assert antisymmetrize(sym, (0, 1)).is_zero()

    skew = MultiTensor(2)
    skew[2, 4] = ONE
    skew[4, 2] = -ONE
    assert antisymmetrize(skew, (0, 1)) == skew
    # idempotent
    assert antisymmetrize(antisymmetrize(t, (0, 1)), (0, 1)) == antisymmetrize(t, (0, 1))


def test_antisymmetrize_slot_errors():
    t = MultiTensor(1)
    with pytest.raises(ValueError):
        antisymmetrize(t, (0, 1))
    t2 = MultiTensor(2)
    with pytest.raises(ValueError):
        antisymmetrize(t2, (0, 0))


def test_tensor_arithmetic(rng):
    a, b = rand_tensor(rng, 2), rand_tensor(rng, 2)
    s = a + b
    for idx in all_indices(2):
        assert s[idx] == a[idx] + b[idx]
    assert (a - a).is_zero()
    assert (-a + a).is_zero()
    assert a.scale(gr(0)).is_zero()
