"""Dense multi-index tensors over the six-element complexified frame.

Frame indices run over {1, 2, 3, 1b, 2b, 3b}, encoded internally as 0..5
with bar(i) = (i + 3) % 6.  A tensor of rank k holds its 6**k entries in the
format of the exact kernel: Gaussian-integer numerators over one positive
common denominator (see MultiTensor); GaussianRational values appear only
when entries are read.  This is the one module that turns GaussianRational
values into numerators and back (numerator_value reads one entry), and it
holds the one exact matrix inverse and the one trace loop (_trace, shared by
the Ricci traces, the flow's exact Ricci and the Lee form of the metric).
Values are treated as immutable once built: the constructors hand out fresh
storage and no public operation mutates its arguments.
"""

from __future__ import annotations

import itertools
from math import gcd, lcm

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


def all_indices(rank: int):
    """Iterate over all rank-tuples of frame indices in lexicographic order."""
    return itertools.product(INDICES, repeat=rank)


def numerator_value(a: int, b: int, den: int) -> GaussianRational:
    """The value (a + b i) / den of one pair of Gaussian-integer numerators."""
    return GaussianRational(Rat(a, den), Rat(b, den)) if a or b else ZERO


class MultiTensor:
    """Dense tensor of the given rank with Gaussian-rational entries.

    The storage is the exact kernel's format: flat lists ``re`` and ``im`` of
    Python-int numerators over one positive common denominator ``den``, so the
    entry at flat offset n (the index tuple read in base 6) is
    (re[n] + im[n] i) / den.  The GaussianRational values are built once,
    through Rat(num, den), on the first ``[]`` or ``nonzero()`` read.
    """

    __slots__ = ("rank", "re", "im", "den", "_values")

    def __init__(self, rank: int, data=None):
        size = DIM ** rank
        if data is None:
            re, im, den = [0] * size, [0] * size, 1
        else:
            data = list(data)
            if len(data) != size:
                raise ValueError(f"rank-{rank} tensor needs {size} entries, got {len(data)}")
            den = lcm(1, *(int(q.denominator) for v in data for q in (v.re, v.im)))
            re = [int(v.re.numerator) * (den // int(v.re.denominator)) for v in data]
            im = [int(v.im.numerator) * (den // int(v.im.denominator)) for v in data]
        self.rank, self.re, self.im, self.den, self._values = rank, re, im, den, None

    @classmethod
    def from_numerators(cls, rank: int, re: list, im: list, den: int) -> "MultiTensor":
        """The tensor of entries (re[n] + im[n] i) / den; it takes ownership of the lists."""
        t = cls.__new__(cls)
        t.rank, t.re, t.im, t.den, t._values = rank, re, im, den, None
        return t

    def _offset(self, idx) -> int:
        if len(idx) != self.rank:
            raise ValueError(f"index {idx} has wrong length for rank {self.rank}")
        if not all(0 <= i < DIM for i in idx):
            raise ValueError(f"frame index out of range in {idx}")
        return flat_offset(idx)

    def _entries(self) -> list:
        if self._values is None:
            self._values = [numerator_value(a, b, self.den) for a, b in zip(self.re, self.im)]
        return self._values

    def __getitem__(self, idx) -> GaussianRational:
        if isinstance(idx, int):
            idx = (idx,)
        return self._entries()[self._offset(idx)]

    def __setitem__(self, idx, value: GaussianRational):
        """Store one entry; the common denominator grows to the lcm with the value's."""
        if isinstance(idx, int):
            idx = (idx,)
        off = self._offset(idx)
        dr, di = int(value.re.denominator), int(value.im.denominator)
        den = lcm(self.den, dr, di)
        if den != self.den:
            f = den // self.den
            self.re = [f * a for a in self.re]
            self.im = [f * b for b in self.im]
            self.den = den
        self.re[off] = int(value.re.numerator) * (den // dr)
        self.im[off] = int(value.im.numerator) * (den // di)
        if self._values is not None:
            self._values[off] = value

    def reduced(self) -> "MultiTensor":
        """The same tensor with the common content of numerators and denominator divided out."""
        g = gcd(self.den, *self.re, *self.im)
        return MultiTensor.from_numerators(self.rank, [a // g for a in self.re],
                                           [b // g for b in self.im], self.den // g)

    def copy(self) -> "MultiTensor":
        return MultiTensor.from_numerators(self.rank, self.re[:], self.im[:], self.den)

    def is_zero(self) -> bool:
        return not any(self.re) and not any(self.im)

    def nonzero_offsets(self):
        """Yield (flat offset, index tuple) for every nonzero entry, lexicographically; no values."""
        re, im = self.re, self.im
        for n, idx in enumerate(all_indices(self.rank)):
            if re[n] or im[n]:
                yield n, idx

    def nonzero(self):
        """Yield (index_tuple, value) for every nonzero entry, lexicographically."""
        values = self._entries()
        for n, idx in self.nonzero_offsets():
            yield idx, values[n]

    def __eq__(self, other):
        if not isinstance(other, MultiTensor):
            return NotImplemented
        s, o = other.den, self.den
        return (self.rank == other.rank
                and all(a * s == b * o for a, b in zip(self.re, other.re))
                and all(a * s == b * o for a, b in zip(self.im, other.im)))

    def __neg__(self) -> "MultiTensor":
        return MultiTensor.from_numerators(self.rank, [-a for a in self.re],
                                           [-b for b in self.im], self.den)

    def __repr__(self):
        nz = sum(1 for a, b in zip(self.re, self.im) if a or b)
        return f"<MultiTensor rank={self.rank} nonzero={nz}>"


def identity_tensor() -> MultiTensor:
    """Kronecker delta as a rank-2 tensor."""
    t = MultiTensor(2)
    one = GaussianRational(1)
    for i in INDICES:
        t[i, i] = one
    return t


def inverse(m: MultiTensor) -> MultiTensor:
    """Exact inverse of a rank-2 tensor by fraction-free (Bareiss) Gauss-Jordan elimination.

    With m = N / den for a Gaussian-integer matrix N, the rows of [N | den I]
    are reduced over Z[i]: every update (p a - f b) / prev divides exactly by
    the previous pivot (E. H. Bareiss, Math. Comp. 22, 1968), and the left
    block ends as d I with d = +-det N, so the right block is d m^{-1}.
    Raises ZeroDivisionError on a singular matrix.
    """
    rows = [[(m.re[DIM * r + c], m.im[DIM * r + c]) for c in INDICES]
            + [(m.den if r == c else 0, 0) for c in INDICES] for r in INDICES]
    prev = (1, 0)
    for k in INDICES:
        p = next((r for r in range(k, DIM) if rows[r][k] != (0, 0)), None)
        if p is None:
            raise ZeroDivisionError("singular matrix")
        rows[k], rows[p] = rows[p], rows[k]
        (pr, pi), (qr, qi) = rows[k][k], prev
        q2 = qr * qr + qi * qi
        for r in INDICES:
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
    dr, di = prev  # m^{-1} = X / d = X conj(d) / |d|^2 for the right block X
    return MultiTensor.from_numerators(2, [a * dr + b * di for row in rows for a, b in row[DIM:]],
                                       [b * dr - a * di for row in rows for a, b in row[DIM:]],
                                       dr * dr + di * di).reduced()


def contract(t: MultiTensor, a: MultiTensor, slot_t: int, slot_a: int) -> MultiTensor:
    """Sum over a shared frame index: Einstein contraction of slot_t of t with slot_a of a.

    Result slots are the remaining slots of t followed by the remaining
    slots of a, in their original order.
    """
    if not 0 <= slot_t < t.rank:
        raise ValueError(f"slot {slot_t} out of range for rank-{t.rank} tensor")
    if not 0 <= slot_a < a.rank:
        raise ValueError(f"slot {slot_a} out of range for rank-{a.rank} tensor")
    size = DIM ** (t.rank + a.rank - 2)
    re, im = [0] * size, [0] * size
    # bucket the entries of `a` by the contracted slot; products sum over t.den * a.den
    buckets = [[] for _ in range(DIM)]
    for n, idx in a.nonzero_offsets():
        rest = flat_offset(idx[:slot_a] + idx[slot_a + 1:])
        buckets[idx[slot_a]].append((rest, a.re[n], a.im[n]))
    stride = DIM ** (a.rank - 1)
    for n, idx in t.nonzero_offsets():
        base, x, y = stride * flat_offset(idx[:slot_t] + idx[slot_t + 1:]), t.re[n], t.im[n]
        for o, c, d in buckets[idx[slot_t]]:
            re[base + o] += x * c - y * d
            im[base + o] += x * d + y * c
    return MultiTensor.from_numerators(t.rank + a.rank - 2, re, im, t.den * a.den).reduced()


def _trace(t, stride, pairs, g, rank=2):
    """out[n] = sum of t[stride * n + o] * g[w] over the (o, w) in pairs, for n < 6**rank."""
    pairs = [(o, g.re[w], g.im[w]) for o, w in pairs if g.re[w] or g.im[w]]
    tre, tim = t.re, t.im
    re = [0] * DIM ** rank
    im = [0] * DIM ** rank
    for n in range(DIM ** rank):
        for o, c, d in pairs:
            a, b = tre[stride * n + o], tim[stride * n + o]
            re[n] += a * c - b * d
            im[n] += a * d + b * c
    return MultiTensor.from_numerators(rank, re, im, t.den * g.den)


def flat_offset(idx) -> int:
    """The flat offset of an index tuple: the tuple read in base 6."""
    off = 0
    for i in idx:
        off = off * DIM + i
    return off

