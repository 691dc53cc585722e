"""Wedge products of invariant forms, single components of d, and the balanced test
through omega ^ omega.

Test-side references only: the engine classifies metrics from the torsion
forms (metric.classify_metric) and evaluates d on the exact kernel
(curvlab.algebra.exterior_d), and these independent routes check it.
Forms use the determinant convention of curvlab.algebra,
e.g. (a ^ b)(x, y) = a(x) b(y) - a(y) b(x).
"""

import itertools

from curvlab.scalars import ZERO
from curvlab.tensors import DIM, INDICES, MultiTensor, all_indices, flat_offset, numerator_value


def perm_sign(perm) -> int:
    """Sign of a permutation of range(len(perm)), from its cycle lengths."""
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def d_component(alpha: MultiTensor, alg, idx: tuple):
    """Single component of d(alpha) at the given (rank+1)-tuple, summed term by term
    on the Python-int numerators of alpha and of the structure constants: for each
    pair of slots p < q, (-1)^(p+q) c_{x_p x_q}^a alpha(a, idx without slots p, q)
    (the formula at curvlab.algebra.exterior_d)."""
    idx = tuple(idx)
    if len(idx) != alpha.rank + 1 or not all(0 <= i < DIM for i in idx):
        raise ValueError(f"expected a {alpha.rank + 1}-tuple of frame indices, got {idx}")
    c = alg.c
    xr = xi = 0
    for p, q in itertools.combinations(range(len(idx)), 2):
        s = -1 if (p + q) % 2 else 1
        rest = idx[:p] + idx[p + 1:q] + idx[q + 1:]
        for a in INDICES:
            n, m = flat_offset((idx[p], idx[q], a)), flat_offset((a,) + rest)
            cr, ci, ar, ai = c.re[n], c.im[n], alpha.re[m], alpha.im[m]
            xr += s * (cr * ar - ci * ai)
            xi += s * (cr * ai + ci * ar)
    return numerator_value(xr, xi, alpha.den * c.den)


def wedge_component(a: MultiTensor, b: MultiTensor, idx: tuple):
    """(a ^ b) evaluated at one index tuple, via the shuffle sum."""
    p, q = a.rank, b.rank
    if len(idx) != p + q:
        raise ValueError(f"expected a {p + q}-tuple, got {idx}")
    total = ZERO
    positions = range(p + q)
    for chosen in itertools.combinations(positions, p):
        rest = tuple(x for x in positions if x not in chosen)
        va = a[tuple(idx[x] for x in chosen)]
        if va.is_zero():
            continue
        vb = b[tuple(idx[x] for x in rest)]
        if vb.is_zero():
            continue
        term = va * vb
        total = total + term if perm_sign(chosen + rest) > 0 else total - term
    return total


def wedge(a: MultiTensor, b: MultiTensor) -> MultiTensor:
    """Full wedge product under the determinant convention."""
    out = MultiTensor(a.rank + b.rank)
    for idx in all_indices(a.rank + b.rank):
        v = wedge_component(a, b, idx)
        if not v.is_zero():
            out[idx] = v
    return out


def balanced_via_omega_squared(h, alg) -> bool:
    """Independent balanced test: d(omega ^ omega) = 0."""
    omega2 = wedge(h.omega, h.omega)
    return all(
        d_component(omega2, alg, idx).is_zero()
        for idx in itertools.combinations(INDICES, 5)
    )
