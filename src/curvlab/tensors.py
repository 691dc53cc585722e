"""Dense multi-index tensors over the six-element complexified frame.

Frame indices run over {1, 2, 3, 1b, 2b, 3b}, encoded internally as 0..5
with bar(i) = (i + 3) % 6.  A tensor of rank k holds its 6**k entries in the
format of the exact kernel: Gaussian-integer numerators over one positive
common denominator, stored as one read-only numpy array whoever built the
tensor, with read-only tuple views of Python ints built from it on demand (see
MultiTensor), so no stage turns an array into lists and back; GaussianRational
values appear only when entries are read.  This is the one module that turns
GaussianRational values into numerators and back (numerator_value reads one
entry).  It holds the one exact matrix inverse (one fraction-free elimination,
run on the 3x3 block G of a Hermitian matrix [[0, G], [G^T, 0]] and on the
whole 6x6 matrix otherwise) and the primitives of the one exact kernel
(_dtype, _numerators, _arrays, _cmatmul, _tensor and their kin, with versions
such as _reduced_each over a stack of tensors along a leading spec axis, at the
end of the module), on which contract and every other exact product of two
stored tensors run.
Every number-format decision is made here; no other module picks a dtype or
casts.  A stored array is int64 only within |n| <= 2^63 - 1, closed under negation
(_numerators), and a product (_cmatmul) runs on float64 (BLAS) where its bound keeps
every partial sum below 2^52, on int64 below 2^62 and on Python ints beyond.  The index
arithmetic of the hot loops is done once, at import: all_indices hands out one
stored tuple per rank up to 4, from which the structural checks build their
tables of permuted and conjugated offsets.
Values are treated as immutable once built: the constructors store read-only
arrays, and no public operation mutates its arguments.
"""

from __future__ import annotations

import itertools
from math import gcd, lcm
from operator import floordiv, neg

import numpy as np

from .scalars import ZERO, GaussianRational, Rat

DIM = 6
INDICES = tuple(range(DIM))
UNBARRED = (0, 1, 2)
BARRED = (3, 4, 5)

INDEX_NAMES = ("1", "2", "3", "1b", "2b", "3b")


def bar(i: int) -> int:
    """The conjugation involution on frame indices: 1 <-> 1b etc."""
    return (i + 3) % 6


def is_barred(i: int) -> bool:
    return i >= 3


def index_name(i: int) -> str:
    return INDEX_NAMES[i]


# the rank-tuples of frame indices for ranks 0-4, each tuple at its flat offset
_INDEX_TUPLES = tuple(tuple(itertools.product(INDICES, repeat=r)) for r in range(5))


def all_indices(rank: int) -> tuple:
    """All rank-tuples of frame indices in lexicographic order, as a tuple whose n-th
    entry is the index tuple at flat offset n; stored once for rank <= 4."""
    if rank < len(_INDEX_TUPLES):
        return _INDEX_TUPLES[rank]
    return tuple(itertools.product(INDICES, repeat=rank))


def numerator_value(a: int, b: int, den: int) -> GaussianRational:
    """The value (a + b i) / den of one pair of Gaussian-integer numerators."""
    return GaussianRational(Rat(a, den), Rat(b, den)) if a or b else ZERO


class MultiTensor:
    """Dense tensor of the given rank with Gaussian-rational entries.

    The storage is the exact kernel's format: Gaussian-integer numerators over
    one positive common denominator ``den``, so the entry at flat offset n (the
    index tuple read in base 6) is (re[n] + im[n] i) / den.  Every constructor
    stores one read-only array z = [re, im] of shape (2, 6**rank), int64 when
    every |numerator| <= 2^63 - 1 and object otherwise (see _numerators); a tensor the
    kernel writes (_tensor) may store a view of the kernel's own output, which
    the kernel writes no more once _tensor has it.  ``re`` and ``im`` are tuples
    of Python ints read from z once, by .tolist(), when a Python loop or a value
    read needs them.  __setitem__, the one mutator, stores a new array; no array
    a tensor stores is ever written, so copy() shares it.  A GaussianRational
    value is built, through Rat(num, den), only for an entry that ``[]`` or
    ``nonzero()`` returns.
    """

    __slots__ = ("rank", "den", "_re", "_im", "_z", "_m")

    def __init__(self, rank: int, data=None):
        size = DIM ** rank
        if data is None:
            z, den = np.zeros((2, size), np.int64), 1
        else:
            data = list(data)
            if len(data) != size:
                raise ValueError(f"rank-{rank} tensor needs {size} entries, got {len(data)}")
            # the entries that are not the ZERO constant, the bulk of a sparse table
            given = [(n, v.re, v.im) for n, v in enumerate(data) if v is not ZERO]
            den = lcm(1, *{int(q.denominator) for _, a, b in given for q in (a, b)})
            z = re, im = [0] * size, [0] * size
            for n, a, b in given:
                re[n] = int(a.numerator) * (den // int(a.denominator))
                im[n] = int(b.numerator) * (den // int(b.denominator))
        self._store(rank, z, den)

    def _store(self, rank, z, den):
        """Store the numerators z = [re, im], lists or an array of shape (2, ...), over den
        as a read-only array (see _numerators).  An int64 z is stored as a view, not a
        copy, so the caller must not write to z, or to the array it views, afterwards;
        the read-only flag guards only the view."""
        z = _numerators(z).reshape(2, -1)
        z.setflags(write=False)
        self.rank, self.den, self._re, self._im, self._z, self._m = rank, den, None, None, z, None

    @classmethod
    def from_numerators(cls, rank: int, re, im, den: int) -> "MultiTensor":
        """The tensor of entries (re[n] + im[n] i) / den; it reads the lists into its array."""
        return _tensor(rank, (re, im), den)

    @property
    def re(self) -> tuple:
        """The real numerators as a tuple of Python ints."""
        if self._re is None:
            self._re, self._im = map(tuple, self._z.tolist())
        return self._re

    @property
    def im(self) -> tuple:
        """The imaginary numerators as a tuple of Python ints."""
        if self._im is None:
            self._re, self._im = map(tuple, self._z.tolist())
        return self._im

    def _offset(self, idx) -> int:
        if len(idx) != self.rank:
            raise ValueError(f"index {idx} has wrong length for rank {self.rank}")
        if not all(0 <= i < DIM for i in idx):
            raise ValueError(f"frame index out of range in {idx}")
        return flat_offset(idx)

    def __getitem__(self, idx) -> GaussianRational:
        if isinstance(idx, int):
            idx = (idx,)
        off = self._offset(idx)
        return numerator_value(self.re[off], self.im[off], self.den)

    def __setitem__(self, idx, value: GaussianRational):
        """Store one entry in a new array; the common denominator grows to the lcm with
        the value's."""
        if isinstance(idx, int):
            idx = (idx,)
        off = self._offset(idx)
        dr, di = int(value.re.denominator), int(value.im.denominator)
        den = lcm(self.den, dr, di)
        f = den // self.den
        re, im = [f * a for a in self.re], [f * b for b in self.im]
        re[off] = int(value.re.numerator) * (den // dr)
        im[off] = int(value.im.numerator) * (den // di)
        self._store(self.rank, (re, im), den)

    def reduced(self) -> "MultiTensor":
        """The same tensor with the common content of numerators and denominator divided
        out (_reduced_each); a tensor already in lowest terms shares its array."""
        z, (den,) = _reduced_each(self._z[:, None], [self.den])
        return _tensor(self.rank, z, den)

    def copy(self) -> "MultiTensor":
        """An equal tensor that shares the read-only array: a write to either stores a
        new array of its own."""
        return _tensor(self.rank, self._z, self.den)

    def __reduce__(self):
        """pickle and deepcopy rebuild through _tensor, which stores the array read-only."""
        return _tensor, (self.rank, self._z, self.den)

    def is_zero(self) -> bool:
        return not self._z.any()

    def nonzero_offsets(self):
        """Yield (flat offset, index tuple) for every nonzero entry, lexicographically; no values."""
        idx = all_indices(self.rank)
        for n in np.flatnonzero(self._z.any(0)).tolist():
            yield n, idx[n]

    def nonzero(self):
        """Yield (index_tuple, value) for every nonzero entry, lexicographically."""
        re, im = self.re, self.im
        for n, idx in self.nonzero_offsets():
            yield idx, numerator_value(re[n], im[n], self.den)

    def __eq__(self, other):
        if not isinstance(other, MultiTensor):
            return NotImplemented
        s, o = other.den, self.den
        return (self.rank == other.rank
                and all(a * s == b * o for a, b in zip(self.re, other.re))
                and all(a * s == b * o for a, b in zip(self.im, other.im)))

    def __neg__(self) -> "MultiTensor":
        return _tensor(self.rank, -self._z, self.den)

    def __repr__(self):
        nz = sum(1 for _ in self.nonzero_offsets())
        return f"<MultiTensor rank={self.rank} nonzero={nz}>"


def identity_tensor() -> MultiTensor:
    """Kronecker delta as a rank-2 tensor."""
    return _tensor(2, np.stack((np.eye(DIM, dtype=np.int64), np.zeros((DIM, DIM), np.int64))), 1)


# (a, b, offset of (a, bbar), offset of (bbar, a)) over the block G of [[0, G], [G^T, 0]],
# and the offsets of the pure-type entries (a, b) and (abar, bbar) that must be zero there
_G_BLOCK = tuple((a, b, 6 * a + b + 3, 6 * (b + 3) + a) for a in UNBARRED for b in UNBARRED)
_PURE_TYPE = tuple(6 * a + b for a in INDICES for b in INDICES if is_barred(a) == is_barred(b))


def inverse(m: MultiTensor) -> MultiTensor:
    """Exact inverse of a rank-2 tensor by fraction-free (Bareiss) Gauss-Jordan elimination.

    A Hermitian matrix [[0, G], [G^T, 0]] (zero pure-type blocks, every metric
    build_metric makes) has the inverse [[0, G^{-T}], [G^{-1}, 0]], so only its
    3x3 block G is eliminated; any other matrix, such as the flow's
    non-Hermitian states, is eliminated whole.  Both go through _bareiss.
    Raises ZeroDivisionError on a singular matrix.
    """
    re, im = m.re, m.im
    if (not any(re[n] or im[n] for n in _PURE_TYPE)
            and all(re[p] == re[q] and im[p] == im[q] for _, _, p, q in _G_BLOCK)):
        xre, xim, den = _bareiss([[(re[p], im[p]) for _, _, p, _ in _G_BLOCK[3 * a:3 * a + 3]]
                                  for a in UNBARRED], m.den)
        # (m^{-1})_{a bbar} = (m^{-1})_{bbar a} = (G^{-T})_{ab}, entry 3 b + a of G^{-1}
        re, im = [0] * DIM * DIM, [0] * DIM * DIM
        for a, b, p, q in _G_BLOCK:
            re[p] = re[q] = xre[3 * b + a]
            im[p] = im[q] = xim[3 * b + a]
    else:
        re, im, den = _bareiss([[(re[DIM * r + c], im[DIM * r + c]) for c in INDICES]
                                for r in INDICES], m.den)
    return MultiTensor.from_numerators(2, re, im, den).reduced()


def _bareiss(rows, den):
    """(re, im, d) of the inverse of N / den, row-major over d, for the square
    Gaussian-integer matrix N given as rows of (re, im) pairs.

    The rows of [N | den I] are reduced over Z[i]: every update (p a - f b) / prev
    divides exactly by the previous pivot (E. H. Bareiss, Math. Comp. 22, 1968),
    and the left block ends as d I with d = +-det N, so the right block is
    d (N / den)^{-1}.  Raises ZeroDivisionError on a singular matrix.
    """
    size = len(rows)
    rows = [row + [(den if r == c else 0, 0) for c in range(size)] for r, row in enumerate(rows)]
    prev = (1, 0)
    for k in range(size):
        p = next((r for r in range(k, size) if rows[r][k] != (0, 0)), None)
        if p is None:
            raise ZeroDivisionError("singular matrix")
        rows[k], rows[p] = rows[p], rows[k]
        (pr, pi), (qr, qi) = rows[k][k], prev
        q2 = qr * qr + qi * qi
        for r in range(size):
            if r == k:
                continue
            fr, fi = rows[r][k]
            row = []
            for (ar, ai), (br, bi) in zip(rows[r], rows[k]):
                xr = pr * ar - pi * ai - fr * br + fi * bi
                xi = pr * ai + pi * ar - fr * bi - fi * br
                # the exact quotient x / prev = x conj(prev) / |prev|^2
                row.append(((xr * qr + xi * qi) // q2, (xi * qr - xr * qi) // q2))
            rows[r] = row
        prev = rows[k][k]
    dr, di = prev  # the inverse is X / d = X conj(d) / |d|^2 for the right block X
    return ([a * dr + b * di for row in rows for a, b in row[size:]],
            [b * dr - a * di for row in rows for a, b in row[size:]], dr * dr + di * di)


def contract(t: MultiTensor, a: MultiTensor, slot_t: int, slot_a: int) -> MultiTensor:
    """Sum over a shared frame index: Einstein contraction of slot_t of t with slot_a of a.

    Result slots are the remaining slots of t followed by the remaining
    slots of a, in their original order.  One kernel product over
    t.den * a.den (12 real products per entry), reduced.
    """
    if not 0 <= slot_t < t.rank:
        raise ValueError(f"slot {slot_t} out of range for rank-{t.rank} tensor")
    if not 0 <= slot_a < a.rank:
        raise ValueError(f"slot {slot_a} out of range for rank-{a.rank} tensor")
    (zt, mt), (za, ma) = _arrays(t), _arrays(a)
    # t's slot last and a's first: the product of a 6^(rank-1) x 6 by a 6 x 6^(rank-1) stack
    zt = np.moveaxis(zt.reshape((2,) + (DIM,) * t.rank), 1 + slot_t, -1)
    za = np.moveaxis(za.reshape((2,) + (DIM,) * a.rank), 1 + slot_a, 1)
    out = _cmatmul(zt.reshape(2, -1, DIM), za.reshape(2, DIM, -1),
                   mt.bit_length() + ma.bit_length(), 12)
    z, (den,) = _reduced_each(out.reshape(2, 1, -1), [t.den * a.den])
    return _tensor(t.rank + a.rank - 2, z, den)


def flat_offset(idx) -> int:
    """The flat offset of an index tuple: the tuple read in base 6."""
    off = 0
    for i in idx:
        off = off * DIM + i
    return off


# -- the Gaussian-integer kernel ----------------------------------------------
#
# The kernel reads the numerators of MultiTensor (re[n] + im[n] i over one
# positive den) as numpy arrays z = [re, im] of shape (2, 6, ..., 6), each
# tensor's stored array (_arrays), evaluates each stage as integer matrix
# products and index gathers, and hands back MultiTensors that store its output
# arrays (_tensor).  No stage writes a list: a numerator becomes a Python int
# (.tolist()) only where a Python loop or a value read asks for re and im, and
# every den is a Python int.  A call bounds each product's sums by the bit
# lengths of its inputs and hands the bound, with the operands in whatever storage
# dtype they have, to _cmatmul, the one owner of the tier: float64 (BLAS) for
# products large enough to pay for the casts whose every partial sum is an integer
# below 2^52, which float64 holds exactly, coming back as int64; int64 where every
# sum stays below 2^62; object (numpy running the same expressions on Python ints)
# beyond.  Every output is exact and all three tiers give the same numbers
# (docs/conventions.md lists every call site).

# the bounds: int64 holds magnitudes below 2^63; sums kept below 2^62 leave one bit
# to spare, so a partial sum, its negation and the difference of two of them fit.
# float64 holds every integer below 2^53; sums kept below 2^52 leave the same bit.
_INT64_BUDGET = 62
_FLOAT_BUDGET = 52
# the fewest multiply-adds per matrix (m k l for an m x k by k x l product) that
# float64 pays off at: on the kernel's smaller products (1 x 6 x 6 to 6 x 6 x 6)
# the casts and one BLAS call per matrix take 1.3-1.8x numpy's int64 loop, and
# from its 36 x 6 x 6 products on the float64 product is 0.2-0.8x (OpenBLAS, x86-64)
_FLOAT_MIN_SIZE = 1000


def _dtype(product_bits, terms):
    """The storage dtype of a sum of at most `terms` real products, each below
    2^product_bits in magnitude: np.int64 when it stays below 2^62 (|sum| < terms
    2^product_bits <= 2^(product_bits + ceil(log2 terms))), and object otherwise.
    Called by _tiers and _scaled_each alone: no caller outside tensors is left."""
    return np.int64 if product_bits + (terms - 1).bit_length() <= _INT64_BUDGET else object


def _maxabs(z):
    """The largest |entry| of the array z, as a Python int."""
    return max(int(np.maximum.reduce(z, None)), -int(np.minimum.reduce(z, None)))


def _numerators(parts):
    """The numerators parts, lists (re, im) or an array, as an array of their shape:
    int64 for the symmetric range |n| <= 2^63 - 1 that _maxabs bounds describe, so
    that -2^63 has its negation, and object otherwise.  Only conversions are scanned:
    an int64 array, which the kernel writes with every sum below 2^62, is kept."""
    if isinstance(parts, np.ndarray) and parts.dtype == np.int64:
        return parts
    try:
        z = np.asarray(parts, np.int64)
    except OverflowError:
        return np.asarray(parts, object)
    return z if z.min(initial=0) > -2 ** 63 else np.asarray(parts, object)


def _arrays(t):
    """(z, m): t's stored numerator array z = [re, im] (see MultiTensor), and
    m = _maxabs(z), computed once."""
    if t._m is None:
        t._m = _maxabs(t._z)
    return t._z, t._m


def _tiers(product_bits, terms, size):
    """(dtype, tier): the storage dtype _dtype(product_bits, terms) of a product's
    result, and the dtype it runs on: float64 (BLAS) within _FLOAT_BUDGET for matrices
    of at least _FLOAT_MIN_SIZE multiply-adds (size = m k l for an m x k by k x l
    product), where every partial sum, in any order and with or without FMA, is an
    integer below 2^52, which float64 holds exactly; else the storage dtype."""
    dtype = _dtype(product_bits, terms)
    if product_bits + (terms - 1).bit_length() <= _FLOAT_BUDGET and size >= _FLOAT_MIN_SIZE:
        return dtype, np.float64
    return dtype, dtype


def _cmatmul(a, b, product_bits, terms):
    """The Gaussian-integer matrix product a @ b of [re, im] stacks (numpy matmul
    broadcasting on the axes between the first and the last two): 2k real
    products per entry for k the contracted length.

    The caller passes the bound, at most `terms` real products below 2^product_bits
    per entry, and the operands in any storage dtype (int64 or object, read-only
    views too).  The result takes _dtype(product_bits, terms), and the product runs
    on the tier _tiers picks.  Each operand is cast once, to that tier."""
    dtype, tier = _tiers(product_bits, terms, a.shape[-2] * a.shape[-1] * b.shape[-1])
    a, b = a.astype(tier, copy=False), b.astype(tier, copy=False)
    p = np.matmul(a[:, None], b[None])  # p[s, t] = a[s] @ b[t]
    out = p[0]
    out[0] -= p[1, 1]
    out[1] += p[1, 0]
    return out.astype(dtype, copy=False)


def _real_matmul(rows, b, product_bits, terms):
    """The product rows @ b of a real matrix, lists of Python ints each below
    2^product_bits, by each part of the Gaussian-integer stack b = [re, im]: k real
    products per entry for k the length of a row, on the tier and in the dtype
    _cmatmul gives the same bound, with no products of a zero imaginary part."""
    dtype, tier = _tiers(product_bits, terms, len(rows) * b.shape[-2] * b.shape[-1])
    return np.matmul(np.array(rows, tier), b.astype(tier, copy=False)).astype(dtype, copy=False)


def _tensor(rank, z, den):
    """The MultiTensor of the numerators z = [re, im] over den (see MultiTensor._store)."""
    t = MultiTensor.__new__(MultiTensor)
    t._store(rank, z, den)
    return t


# A stack is (z, dens): the numerators of S tensors along a spec axis, z of shape
# (2, S, n) with z[:, s] = [re, im] of spec s, and dens[s] its Python-int
# denominator.  The connection kernel runs a whole point's connections as one
# stack, stage to stage, and each stage takes its dtype from the largest bound
# over the stack's specs.

def _stack(ts):
    """The stack of the tensors ts, their stored arrays along a spec axis (object when
    any of them is); one tensor's stack is a read-only view of its array."""
    zs = [t._z for t in ts]
    return (zs[0][:, None] if len(zs) == 1 else np.stack(zs, axis=1)), [t.den for t in ts]


def _maxabs_each(z):
    """The largest |entry| of each spec of the stack array z, as Python ints."""
    return list(map(max, z.max((0, 2)).tolist(), map(neg, z.min((0, 2)).tolist())))


def _scaled_each(z, fs, ms, bits, terms):
    """Each spec s of the stack array z times fs[s], in _dtype(bits, terms); ms[s] = 0
    marks an all-zero spec, scaled by 1 so that an f beyond int64 never meets int64 zeros."""
    dtype = _dtype(bits, terms)
    z = z.astype(dtype, copy=False)
    if fs.count(1) == len(fs):
        return z
    return z * np.array([f if m else 1 for f, m in zip(fs, ms)], dtype)[:, None]


def _reduced_each(z, dens):
    """The stack (z, dens) with each spec's content divided out: z[:, s] / g and
    dens[s] / g for g the gcd of dens[s] and every numerator of spec s (an all-zero
    spec keeps its zeros over 1)."""
    content = np.gcd.reduce(z, (0, 2)).tolist()
    gs = list(map(gcd, dens, content))  # gcd(den, 0) = den: an all-zero spec goes over 1
    dens = list(map(floordiv, dens, gs))
    if 0 in content:  # its zeros are divided by 1, so a den beyond int64 never meets them
        gs = [g if c else 1 for g, c in zip(gs, content)]
    if gs.count(gs[0]) == len(gs):  # one divisor for the whole stack
        return (z // gs[0] if gs[0] != 1 else z), dens
    return z // np.array(gs, z.dtype)[:, None], dens


def _first_hits(hits, z, dens, labels):
    """Per spec s of the stack (z, dens): None when the mask hits[s], k positions per entry
    of z, has no hit, else (labels[m], the value of entry m // k) at its first hit m."""
    k = hits.shape[1] // z.shape[2]
    return [(labels[m], numerator_value(*z[:, s, m // k].tolist(), dens[s])) if hit else None
            for s, (hit, m) in enumerate(zip(hits.any(1).tolist(), hits.argmax(1).tolist()))]


def _partner_hits(z, partners, signs, zeros=False):
    """The mask (S, n, k) of a stack array z (2, S, n): entry n of spec s is hit at j
    when it is nonzero, or zeros is true, and partners[j, n] does not hold
    signs[:, j] times it."""
    image = z[:, :, None] * signs[:, None, :, None]  # (2, S, k, n), n innermost
    hits = (np.take(z, partners, axis=2) != image).any(0)
    if not zeros:
        hits &= (z != 0).any(0)[:, None]
    return hits.transpose(0, 2, 1)


def _tensors(rank, z, dens):
    """The MultiTensors of the stack (z, dens), each storing its spec's array (see _tensor)."""
    return [_tensor(rank, z[:, s], d) for s, d in enumerate(dens)]
