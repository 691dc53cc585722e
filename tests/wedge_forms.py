"""Wedge products of invariant forms and the balanced test through omega ^ omega.

Test-side references only: the engine classifies metrics from the torsion
forms (metric.classify_metric), and these independent routes check it.
Forms use the determinant convention of curvlab.algebra,
e.g. (a ^ b)(x, y) = a(x) b(y) - a(y) b(x).
"""

import itertools

from curvlab.algebra import _perm_sign, d_component
from curvlab.scalars import ZERO
from curvlab.tensors import INDICES, MultiTensor, all_indices


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
        total = total + term if _perm_sign(chosen + rest) > 0 else total - term
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
