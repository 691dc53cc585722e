"""Christoffel symbols, curvature, Ricci traces, and the torsion Bianchi identity.

The two-parameter family of metric connections is

    Gamma^{eps,rho}_{IH}^K = Gamma^{LC}_{IH}^K + eps g^{KL} T_{IHL} + rho g^{KL} C_{IHL},

with the Levi-Civita symbols

    Gamma^{LC}_{IH}^K = 1/2 c_{IH}^K - 1/2 g^{KA} g_{BI} c_{HA}^B - 1/2 g^{KA} g_{BH} c_{IA}^B.

The Hermitian (Gauduchon) connections sit on the line eps + rho = 1/2.
Lowered, the symbols are affine in (eps, rho):

    Gamma^{eps,rho}_{IH,L} = 1/2 lc_{IHL} + eps T_{IHL} + rho C_{IHL},
    lc_{IHL} = c_{IH}^B g_{BL} - c_{HL}^B g_{BI} - c_{IL}^B g_{BH},

and the three tables depend on the point (structure, metric) alone.  A
ConnectionPlane holds them: the scoreboard and the structural sweep build it
once per point and share it between classify_metric, which reads (T, C), and
every connection they evaluate there.  christoffel without a plane builds
the tables its spec needs, and the Levi-Civita connection needs no (T, C).
The curvature operator R(x, y) = [nabla_x, nabla_y] - nabla_[x,y] has raised
components R(I,H)K^A = Gamma_{HK}^B Gamma_{IB}^A - Gamma_{IK}^B Gamma_{HB}^A
- c_{IH}^B Gamma_{BK}^A.  The stored (4,0)-tensor is the lowered operator
R_{IHKL} = -sum_A R(I,H)K^A g_{AL} = g(R(phi_I, phi_H) phi_L, phi_K), the
component orientation of the golden tables (see docs/conventions.md).  Lowering
acts only on the A slot, and Gamma_{IB}^A g_{AL} = Gamma_{IB,L}, so
R_{IHKL} = -(Gamma_{HK}^B Gamma_{IB,L} - Gamma_{IK}^B Gamma_{HB,L} - c_{IH}^B Gamma_{BK,L})
needs no metric contraction.  The operator is skew in (I, H), so the kernel
(_operator) evaluates its I < H half once, 540 of the 1296 entries, and each
consumer reads that half: the stored tensor negates it, divides out its
content and expands it by one table lookup (_EXPAND), and the Bianchi defect
reads its cyclic rows off the raised operator's half, R(k,i)h = -R(i,k)h.
The flow's exact Ricci traces the symbols directly and builds no operator.
The Riemannian Ricci ric_lc keeps the standard orientation, so the Ricci flow
has its usual sign.  All of it runs on one Gaussian-integer kernel (below)
that reads and writes the numerators MultiTensor stores.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from math import gcd, lcm

from .algebra import LieAlgebraCx
from .metric import HermitianData, torsion_forms
from .scalars import GaussianRational, Rat, rat_from_str
from .tensors import (
    BARRED,
    DIM,
    INDICES,
    MultiTensor,
    UNBARRED,
    _trace,
    all_indices,
    bar,
    contract,
    index_name,
    is_barred,
    offset_table,
)

__all__ = [
    "ConnectionSpec",
    "PRESETS",
    "ChristoffelTable",
    "ConnectionPlane",
    "connection_plane",
    "christoffel",
    "CurvatureTensor",
    "curvature",
    "curvature_of",
    "RicciData",
    "ricci_and_scalar",
    "torsion_and_bianchi_defect",
    "curvature_to_json",
]

_HALF = Rat(1, 2)

PRESETS = {
    "lc": (Rat(0), Rat(0)),
    "chern": (Rat(0), Rat(1, 2)),
    "bismut": (Rat(1, 2), Rat(0)),
    "anti-bismut": (Rat(-1, 2), Rat(0)),
    "first-canonical": (Rat(1, 4), Rat(1, 4)),
    "minimal-gauduchon": (Rat(1, 6), Rat(1, 3)),
}


@dataclass(frozen=True)
class ConnectionSpec:
    """A point (eps, rho) in the plane of metric connections, optionally named."""

    eps: Rat
    rho: Rat
    name: str | None = None

    @classmethod
    def preset(cls, name: str) -> "ConnectionSpec":
        key = name.strip().lower()
        if key == "minimal":
            key = "minimal-gauduchon"
        if key not in PRESETS:
            raise ValueError(f"unknown connection preset {name!r}; known: {sorted(PRESETS)}")
        eps, rho = PRESETS[key]
        return cls(eps, rho, key)

    @classmethod
    def gauduchon(cls, eps) -> "ConnectionSpec":
        """The Hermitian connection with parameter eps on the line eps + rho = 1/2."""
        e = rat_from_str(eps) if isinstance(eps, str) else Rat(eps)
        for key, (pe, pr) in PRESETS.items():
            if pe == e and pr == _HALF - e:
                return cls(pe, pr, key)
        return cls(e, _HALF - e)

    @classmethod
    def parse(cls, text: str) -> "ConnectionSpec":
        """Parse a preset name or an explicit 'eps=a/b,rho=c/d' pair."""
        s = text.strip()
        if "=" not in s:
            return cls.preset(s)
        fields = {}
        for item in s.split(","):
            key, _, val = item.partition("=")
            key = key.strip()
            if key not in ("eps", "rho") or not val:
                raise ValueError(f"bad connection spec {text!r}; expected eps=a/b,rho=c/d")
            if key in fields:
                raise ValueError(f"bad connection spec {text!r}: repeated key {key!r}")
            fields[key] = rat_from_str(val)
        if "eps" not in fields:
            raise ValueError(f"bad connection spec {text!r}: missing eps")
        if "rho" not in fields:
            return cls.gauduchon(fields["eps"])
        return cls(fields["eps"], fields["rho"])

    @property
    def is_gauduchon(self) -> bool:
        return self.eps + self.rho == _HALF

    @property
    def is_lc(self) -> bool:
        return self.eps == 0 and self.rho == 0

    def label(self) -> str:
        if self.name:
            return self.name
        return f"eps={self.eps},rho={self.rho}"

    def as_dict(self):
        return {"eps": str(self.eps), "rho": str(self.rho), "name": self.name}


# -- the Gaussian-integer kernel ----------------------------------------------
#
# Every loop of the kernel runs on the numerators of MultiTensor (re[n] + im[n] i
# over one positive den; see tensors.py) and returns MultiTensors in the same
# format, so no stage converts values on the way in or out.

def _common(s, t):
    """Two tensors rescaled to one denominator, the lcm of theirs."""
    den = lcm(s.den, t.den)
    fs, ft = den // s.den, den // t.den
    return (MultiTensor.from_numerators(s.rank, [fs * a for a in s.re], [fs * b for b in s.im],
                                        den),
            MultiTensor.from_numerators(t.rank, [ft * a for a in t.re], [ft * b for b in t.im],
                                        den))


def _combine(terms):
    """sum of q * t over the (rational q, tensor t) pairs, on one denominator."""
    terms = [(int(q.numerator), int(q.denominator) * t.den, t) for q, t in terms if q]
    den = lcm(*(d for _, d, _ in terms))
    re = [0] * len(terms[0][2].re)
    im = [0] * len(re)
    for p, d, t in terms:
        f = p * (den // d)
        re = [x + f * a for x, a in zip(re, t.re)]
        im = [x + f * b for x, b in zip(im, t.im)]
    return MultiTensor.from_numerators(terms[0][2].rank, re, im, den).reduced()


def _rows(t):
    """Sparse rows over the last slot: rows[n // 6] lists (n % 6, re, im) per nonzero n."""
    rows = [[] for _ in range(len(t.re) // DIM)]
    for n, (a, b) in enumerate(zip(t.re, t.im)):
        if a or b:
            rows[n // DIM].append((n % DIM, a, b))
    return rows


def _lc_sum(c, g):
    """c_{IH}^B g_{BL} - c_{HL}^B g_{BI} - c_{IL}^B g_{BH}: twice Gamma^LC_{IH,L}, over c.den g.den."""
    grows = _rows(g)
    re = [0] * DIM ** 3
    im = [0] * DIM ** 3
    for n, row in enumerate(_rows(c)):
        x, y = divmod(n, DIM)
        for b, cr, ci in row:
            for l, gr_, gi in grows[b]:
                tr, ti = cr * gr_ - ci * gi, cr * gi + ci * gr_
                # where c_{xy}^b g_{bl} enters +c_{IH}^B g_{BL}, -c_{HL}^B g_{BI}, -c_{IL}^B g_{BH}
                for off, s in ((36 * x + 6 * y + l, 1), (36 * l + 6 * x + y, -1),
                               (36 * x + 6 * l + y, -1)):
                    re[off] += s * tr
                    im[off] += s * ti
    return MultiTensor.from_numerators(3, re, im, c.den * g.den)


def _symbols(lc, g_inv, torsion=()):
    """Lowered and raised symbols of 1/2 lc + sum q t over the (q, t) pairs in torsion:
    Gamma^LC + sum q t for lc = _lc_sum(c, g) and any nondegenerate invariant (g, g^{-1})."""
    low = _combine([(_HALF, lc), *torsion])
    return low, contract(low, g_inv, 2, 0)


# The I < H half of an operator: the 15 pairs (I, H) in combinations order,
# each a block of 36 entries (K, X), 540 in all; _PAIR[I, H] numbers the pair.
_PAIRS = tuple(itertools.combinations(INDICES, 2))
_PAIR = {pair: p for p, pair in enumerate(_PAIRS)}

# _EXPAND[6 I + H] is where the stored entries -R(I,H)K^L start in [-half] + half
# + [0] * 36: the negated copy of pair (I, H) for I < H, the plain copy of pair
# (H, I) for I > H (-R(I,H) = R(H,I)), and the zeros for I = H; 36 (K, L) each.
_EXPAND = [36 * _PAIR[i, hh] if i < hh else 540 + 36 * _PAIR[hh, i] if hh < i else 1080
           for i, hh in itertools.product(INDICES, repeat=2)]


def _operator(gamma, c, x):
    """R(I,H)K^X = Gamma_{HK}^B X_{IB} - Gamma_{IK}^B X_{HB} - c_{IH}^B X_{BK} for I < H.

    Bilinear in the symbols gamma and a rank-3 table x whose last slot is the
    output slot: x = gamma gives the raised operator R(I,H)K^A, and x = the
    lowered symbols Gamma_{IB,L} give sum_A R(I,H)K^A g_{AL}.  The operator is
    skew in (I, H), so only the I < H half is evaluated, once: it returns the
    (re, im, den) numerator lists of the 540 entries, entry 36 _PAIR[I, H] +
    6 K + X, over the unreduced denominator of the (gamma, c) pair times x's.
    curvature expands them to the stored tensor through _EXPAND, and the
    Bianchi defect reads its cyclic rows from them directly.
    """
    gamma, c = _common(gamma, c)
    rows = _rows(gamma)  # rows[6 H + K] = nonzero (B, Gamma_{HK}^B)
    xrows = _rows(x)  # xrows[6 I + B] = nonzero (L, X_{IB,L})
    crows = _rows(c)
    re, im = [], []
    for i, hh in _PAIRS:
        crow = crows[6 * i + hh]
        for k in INDICES:
            ar, ai = [0] * DIM, [0] * DIM
            for b, xr, xi in rows[6 * hh + k]:
                for a, yr, yi in xrows[6 * i + b]:
                    ar[a] += xr * yr - xi * yi
                    ai[a] += xr * yi + xi * yr
            for b, xr, xi in rows[6 * i + k]:
                for a, yr, yi in xrows[6 * hh + b]:
                    ar[a] -= xr * yr - xi * yi
                    ai[a] -= xr * yi + xi * yr
            for b, xr, xi in crow:
                for a, yr, yi in xrows[6 * b + k]:
                    ar[a] -= xr * yr - xi * yi
                    ai[a] -= xr * yi + xi * yr
            re += ar
            im += ai
    return re, im, gamma.den * x.den


def _stored(half):
    """The 1296 numerators of -R(I,H)K^L from the 540 of the I < H half, through _EXPAND."""
    src = [-a for a in half] + half + [0] * 36
    out = []
    for j in _EXPAND:
        out += src[j:j + 36]
    return out


@dataclass(frozen=True)
class ChristoffelTable:
    """Raised symbols Gamma_{IH}^K plus the lowered table Gamma_{IH,L} = Gamma_{IH}^A g_{AL}."""

    spec: ConnectionSpec
    gamma: MultiTensor
    lowered: MultiTensor


@dataclass(frozen=True)
class ConnectionPlane:
    """One point's tables lc = _lc_sum(c, g) and forms = (T, C) = torsion_forms(h, alg),
    which every connection of the plane combines (see the module docstring)."""

    lc: MultiTensor
    forms: tuple


def connection_plane(h: HermitianData, alg: LieAlgebraCx) -> ConnectionPlane:
    return ConnectionPlane(_lc_sum(alg.c, h.g), torsion_forms(h, alg))


def christoffel(spec: ConnectionSpec, h: HermitianData, alg: LieAlgebraCx,
                plane: ConnectionPlane | None = None) -> ChristoffelTable:
    """The symbols of spec at (h, alg), combined from plane's tables when it is given
    (built from the same h and alg) and from tables built here otherwise."""
    lc = plane.lc if plane else _lc_sum(alg.c, h.g)
    torsion = ()
    if not spec.is_lc:
        forms = plane.forms if plane else torsion_forms(h, alg)
        torsion = tuple(zip((spec.eps, spec.rho), forms))
    low, gamma = _symbols(lc, h.g_inv, torsion)
    return ChristoffelTable(spec, gamma, low)


@dataclass(frozen=True)
class CurvatureTensor:
    """The full (4,0)-curvature R_{IHKL} of one connection."""

    spec: ConnectionSpec
    tensor: MultiTensor

    def component(self, i, h, k, l) -> GaussianRational:
        return self.tensor[i, h, k, l]


def curvature(gamma: ChristoffelTable, h: HermitianData, alg: LieAlgebraCx) -> CurvatureTensor:
    """The (4,0)-curvature in the pinned component orientation: the lowered operator

    R_{IHKL} = -sum_A R(I,H)K^A g_{AL} = g(R(phi_I, phi_H) phi_L, phi_K),

    read off the lowered symbols gamma.lowered; h is not read.  The I < H half has
    the whole tensor's content (the rest is its negation and zeros), so it is
    reduced before the one expansion.
    """
    re, im, den = _operator(gamma.gamma, alg.c, gamma.lowered)
    g = gcd(den, *re, *im)
    re, im, den = [a // g for a in re], [b // g for b in im], den // g
    return CurvatureTensor(gamma.spec,
                           MultiTensor.from_numerators(4, _stored(re), _stored(im), den))


def curvature_of(spec: ConnectionSpec, h: HermitianData, alg: LieAlgebraCx) -> CurvatureTensor:
    return curvature(christoffel(spec, h, alg), h, alg)


@dataclass(frozen=True)
class RicciData:
    """First and second Ricci, the Riemannian Ricci trace, and the scalar curvature.

    ric1 and ric2 are the holomorphic traces of the stored tensor,
    ric1_{IH} = R_{IH k lb} g^{lb k} and ric2_{KL} = R_{i jb K L} g^{jb i},
    with scal the common double trace.  ric_lc is the standard Riemannian
    Ricci tr(x -> R(x, y) z) of the curvature operator, which in the stored
    orientation is ric_lc_{HK} = -g^{AL} R_{AHKL}.
    """

    ric1: MultiTensor
    ric2: MultiTensor
    ric_lc: MultiTensor
    scal: GaussianRational


def ricci_and_scalar(curv: CurvatureTensor, h: HermitianData) -> RicciData:
    r, g_inv = curv.tensor, h.g_inv
    # holomorphic trace pairs (k, lbar), weighted by g^{lbar k}
    hol = [(k, l, 6 * l + k) for k in UNBARRED for l in BARRED]
    ric1 = _trace(r, 36, [(6 * k + l, w) for k, l, w in hol], g_inv)
    ric2 = _trace(r, 1, [(216 * k + 36 * l, w) for k, l, w in hol], g_inv)
    ric_lc = _trace(r, 6, [(216 * a + l, 6 * a + l) for a in INDICES for l in INDICES],
                    -g_inv)
    scal = _trace(ric1, 0, [(6 * k + l, w) for k, l, w in hol], g_inv, rank=0)
    return RicciData(ric1, ric2, ric_lc, scal[()])


# the flat offset of (H, I, K) at the flat offset of (I, H, K)
_SWAP = offset_table(3, lambda i, hh, k: (hh, i, k))

# per sorted triple (i, hh, k): the triple, the starts of its three rows R(i,hh)k,
# R(hh,k)i and R(i,k)hh in the I < H half, and the (start, sign) of the defect's six
# 6-entry blocks (x, y, z, .) over the permutations (x, y, z) of the triple
_TRIPLES = tuple(
    ((i, hh, k), (36 * _PAIR[i, hh] + 6 * k, 36 * _PAIR[hh, k] + 6 * i, 36 * _PAIR[i, k] + 6 * hh),
     tuple((216 * x + 36 * y + 6 * zz, s)
           for (x, y, zz), s in zip(itertools.permutations((i, hh, k)), (1, -1, -1, 1, 1, -1))))
    for i, hh, k in itertools.combinations(INDICES, 3))


def torsion_and_bianchi_defect(spec: ConnectionSpec, h: HermitianData, alg: LieAlgebraCx):
    """Connection torsion T(x,y) = nabla_x y - nabla_y x - [x,y] and the Bianchi defect.

    The defect is (cyclic sum of R(x,y)z) - (d^nabla T)(x,y,z), a vector-valued
    3-tensor that must vanish identically for every metric connection.  Its
    curvature side is the raised form of the stored curvature's operator, so it is the
    structural oracle for the whole Christoffel/curvature pipeline.  Both sides
    are fully skew in (x, y, z), so sorted triples are evaluated, each from three
    rows of the kernel's I < H half (60 rows in all, no rank-4 tensor), and written
    to the dense 1296-entry defect by the six signed slice copies of _TRIPLES.  The
    symbols are rebuilt here without a plane, so the defect shares no table with the
    caller's.
    """
    table = christoffel(spec, h, alg)
    gamma, c = _common(table.gamma, alg.c)
    gre, gim, cre, cim, den = gamma.re, gamma.im, c.re, c.im, gamma.den
    torsion = MultiTensor.from_numerators(
        3, [gre[n] - gre[m] - cre[n] for n, m in enumerate(_SWAP)],
        [gim[n] - gim[m] - cim[n] for n, m in enumerate(_SWAP)], den)

    rre, rim, _ = _operator(gamma, c, gamma)
    trows, grows, crows = _rows(torsion), _rows(gamma), _rows(c)
    dre = [0] * DIM ** 4
    dim = [0] * DIM ** 4
    for (i, hh, k), (p, q, r), fills in _TRIPLES:
        # R(i,hh)k + R(hh,k)i + R(k,i)hh, read off the I < H half as R(k,i)hh = -R(i,k)hh
        ar = [rre[p + a] + rre[q + a] - rre[r + a] for a in INDICES]
        ai = [rim[p + a] + rim[q + a] - rim[r + a] for a in INDICES]
        for x, y, zz in ((i, hh, k), (hh, k, i), (k, i, hh)):
            # d^nabla T cyclic part: nabla_x (T(y,z)) - T([x,y], z)
            for m, tr, ti in trows[6 * y + zz]:
                for a, gr_, gi in grows[6 * x + m]:
                    ar[a] -= tr * gr_ - ti * gi
                    ai[a] -= tr * gi + ti * gr_
            for m, cr, ci in crows[6 * x + y]:
                for a, tr, ti in trows[6 * m + zz]:
                    ar[a] += cr * tr - ci * ti
                    ai[a] += cr * ti + ci * tr
        nr, ni = [-a for a in ar], [-b for b in ai]
        for base, s in fills:
            dre[base:base + 6], dim[base:base + 6] = (ar, ai) if s > 0 else (nr, ni)

    return torsion, MultiTensor.from_numerators(4, dre, dim, den * den)


# -- structural invariants ---------------------------------------------------
#
# The checks compare numerators over the tensor's one denominator: entry m is
# minus entry n exactly when re[m] == -re[n] and im[m] == -im[n].

# per flat offset n of (I, H, K, L): n, the index tuple, and the offsets of its partners
# (H, I, K, L) for skew12, (I, H, L, K) for skew34, (bar I, bar H, bar K, bar L) for
# reality and (K, L, I, H) for (Symm); n = 36 p + q for the pair offsets p of (I, H)
# and q of (K, L), so each partner is composed from the pair tables of swap and bar
_SWAP2 = offset_table(2, lambda i, hh: (hh, i))
_BAR2 = offset_table(2, lambda *idx: map(bar, idx))
_PARTNERS = tuple((36 * p + q, idx, 36 * _SWAP2[p] + q, 36 * p + _SWAP2[q],
                   36 * _BAR2[p] + _BAR2[q], 36 * q + p)
                  for (p, q), idx in zip(itertools.product(range(36), repeat=2), all_indices(4)))


def curvature_symmetry_failures(curv: CurvatureTensor, check_symm: bool = False):
    """Violations of skewness in (I,H) and (K,L), reality, and optionally (Symm)."""
    r = curv.tensor
    re, im = r.re, r.im
    bad = []
    for n, idx, m12, m34, mbar, msymm in _PARTNERS:
        a, b = re[n], im[n]
        if not (a or b):
            continue
        if re[m12] != -a or im[m12] != -b:
            bad.append(("skew12", idx))
        if re[m34] != -a or im[m34] != -b:
            bad.append(("skew34", idx))
        if re[mbar] != a or im[mbar] != -b:
            bad.append(("reality", idx))
        if check_symm and (re[msymm] != a or im[msymm] != b):
            bad.append(("symm", idx))
    return bad


def nabla_g_failures(table: ChristoffelTable):
    """Metric compatibility: the lowered symbols must be skew in the last two slots."""
    low = table.lowered
    re, im = low.re, low.im
    return [idx for n, idx in low.nonzero_offsets()
            if re[36 * idx[0] + 6 * idx[2] + idx[1]] != -re[n]
            or im[36 * idx[0] + 6 * idx[2] + idx[1]] != -im[n]]


def nabla_j_failures(table: ChristoffelTable):
    """Type preservation: Gamma_{IH}^K with mixed types in (H, K) must vanish."""
    return [idx for _, idx in table.gamma.nonzero_offsets()
            if is_barred(idx[1]) != is_barred(idx[2])]


# -- JSON wire format --------------------------------------------------------

def curvature_to_json(curv: CurvatureTensor) -> str:
    components = [
        {"i": index_name(i), "h": index_name(hh), "k": index_name(k),
         "l": index_name(l), "value": str(v)}
        for (i, hh, k, l), v in curv.tensor.nonzero()
    ]
    doc = {"spec": curv.spec.as_dict(), "components": components}
    return json.dumps(doc, separators=(",", ":"))
