"""Invariant Ricci flow: the ODE reduction of dg/dt = -Ric(g) on a fixed frame.

The flow state is a symmetric, conjugation-real 6x6 component matrix of the
metric in the complexified frame; it may carry nonzero pure-type blocks
g_{ij}, so the machinery here evaluates the Levi-Civita curvature of an
arbitrary invariant (pseudo-)metric rather than going through the Hermitian
constructor.  An exact state holds the metric as a rank-2 MultiTensor, the
one exact format here (flow_state_from_hermitian shares h.g), and
exact_lc_ricci takes and returns rank-2 tensors.  The first evaluation at
t = 0 is exact; the integration itself runs in floating point with a
classical fourth-order scheme.

Both paths take the Ricci trace sum_A R(A,H)K^A of the Levi-Civita
connection with R(x, y) = [nabla_x, nabla_y] - nabla_[x,y]:

    Ric_{HK} = Gamma_{HK}^B Gamma_{AB}^A - Gamma_{AK}^B Gamma_{HB}^A
               - c_{AH}^B Gamma_{BK}^A.

Neither path builds the rank-4 operator.  The first term needs no metric in its
trace: by the Koszul formula Gamma_{AB}^A = (c_{AB}^A + c_{LB}^L) / 2 summed over
A and L, because the third Koszul summand c_{AL}^C g_{CB} g^{LA} contracts c, skew
in (A, L), with the symmetric g^{LA}.  So Gamma_{AB}^A = sum_A c_{AB}^A for every
symmetric invertible g, zero on unimodular algebras.  The other two terms contract
the same right factor Gamma_{AK}^B, and so does the first, read as
sum_{B,A} trc_B delta_{AH} Gamma_{AK}^B.  Both paths fold all three into one product
with the left factor K - Gamma_{HB}^A, K[H, (B, A)] = trc_B delta_{AH} - c_{BH}^A built
by one function (_ricci_left): exact_lc_ricci on the exact kernel's Gaussian-integer
numerators, float_lc_ricci in complex floating point, on a per-structure field that
integrate_flow builds once (_lc_field: the 216 x 36 map LT from vec(g) to the lowered
table, gathered from c at offsets fixed at import, and K).  One float evaluation is one
lowering product, one inverse, one raising product and the Ricci product.  Exact values
reach floating point from their numerators, by one correctly rounded Python-int
division per part (_float_entries): c for the field, and the start metric and its
exact Ricci, whose norm is the trace's t = 0 record.

integrate_flow projects each accepted state onto the symmetric, conjugation-real
matrices; the stage inputs of a step go to the field as they are.  Positivity is
read on the Hermitian form H_{ij} = g(phi_i, phi_jb), one Cholesky of a 6 x 6
matrix: a real symmetric form is positive-definite exactly when its sesquilinear
extension is.  The loop keeps each accepted state and the field there, and the
samples' deviations and Ricci norms are taken in one pass when the run ends or halts.
A run takes at most MAX_STEPS steps (step_count).

hermitian_deviation monitors max |g_{ij}| over the pure-type block; for
initial data whose Levi-Civita connection is Kahler-like the flow must keep
it at zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import LieAlgebraCx
from .connection import _HALF, _lc_sum, _over_c, _symbols
from .metric import HermitianData
from .tensors import (
    DIM,
    INDICES,
    MultiTensor,
    _cmatmul,
    _tensor,
    bar,
    index_name,
    inverse,
)

__all__ = [
    "FlowState",
    "FlowSample",
    "FlowTrace",
    "exact_lc_ricci",
    "ricci_rhs",
    "hermitian_deviation",
    "integrate_flow",
    "step_count",
    "MAX_STEPS",
    "flow_state_from_hermitian",
    "trace_to_csv",
]

# -- exact path ----------------------------------------------------------------

def exact_lc_ricci(g: MultiTensor, alg: LieAlgebraCx) -> MultiTensor:
    """Riemannian Ricci of an arbitrary symmetric invariant metric, exactly: the rank-2
    metric tensor g (an exact FlowState's g6, or h.g) in, the rank-2 Ricci tensor out.

    The Ricci product of float_lc_ricci on the numerators of the raised symbols and
    c over their common denominator D, so the trace sits over D^2.  The trace
    Gamma_{AB}^A in K is c_{AB}^A summed over A, read off c's numerators over the
    same D, so only the raise uses g^{-1}.
    """
    _, gamma = _symbols((_lc_sum(alg.c, g),), [(_HALF,)], inverse(g))
    # per entry: 2 x 36 real products with each of the left factor's summands Gamma and
    # c, and 2 x 6 with its trace term, a sum of 6 entries of c, so counted as 72
    zg, zc, (den,), (bound,) = _over_c(gamma, alg.c)  # one spec, read as (2, ...)
    bits, terms = 2 * bound.bit_length(), 72 + 72 + 72
    g3 = zg.reshape(2, DIM, DIM, DIM)
    # [H, (B, A)]: K - Gamma_{HB}^A; [(B, A), K]: Gamma_{AK}^B
    left = _ricci_left(zc.reshape(2, DIM, DIM, DIM)) - g3.reshape(2, DIM, 36)
    return _tensor(2, _cmatmul(left, g3.transpose(0, 3, 1, 2).reshape(2, 36, DIM), bits, terms),
                   den * den)


def _ricci_left(c):
    """K[..., H, (B, A)] = trc_B delta_{AH} - c_{BH}^A, trc_B = sum_A c_{AB}^A: the part of
    the Ricci product's left factor that does not depend on g, for c[..., I, H, K], the
    float table (6, 6, 6) or the exact numerators [re, im] (2, 6, 6, 6), in c's dtype."""
    trc = np.trace(c, axis1=-3, axis2=-1)  # over B
    k = trc[..., None, :, None] * np.eye(DIM, dtype=np.int64)[:, None, :] - np.swapaxes(c, -3, -2)
    return k.reshape(*c.shape[:-3], DIM, 36)


# -- float path ----------------------------------------------------------------

def _float_entries(t: MultiTensor) -> np.ndarray:
    """t's entries as a flat complex array in offset order: each nonzero entry's
    numerators over t.den by Python-int true division, which rounds correctly, as
    float(Fraction) does, whatever the size of the integers."""
    re, im, den = t.re, t.im, t.den
    out = np.zeros(DIM ** t.rank, dtype=complex)
    for n, _ in t.nonzero_offsets():
        out[n] = complex(re[n] / den, im[n] / den)
    return out


def _float_matrix(g: MultiTensor) -> np.ndarray:
    """The rank-2 tensor g as a complex 6 x 6 array (_float_entries)."""
    return _float_entries(g).reshape(DIM, DIM)


def _structure_array(alg: LieAlgebraCx) -> np.ndarray:
    """c_{IH}^K as a complex (6, 6, 6) array, read from alg.c's numerators (_float_entries)."""
    return _float_entries(alg.c).reshape(DIM, DIM, DIM)


# _LT_TAKE[t, (I, H, L, B, M)]: the offset in c of Koszul term t of LT, or 216, a zero
# slot appended to c, where its delta vanishes: c_{IH}^B at L = M, c_{HL}^B at I = M
# and c_{IL}^B at H = M.  3 x 6^5 indices, built once
_I, _H, _L, _B, _M = np.ix_(*[INDICES] * 5)
_LT_TAKE = np.stack([np.where(_L == _M, 36 * _I + 6 * _H + _B, DIM ** 3),
                     np.where(_I == _M, 36 * _H + 6 * _L + _B, DIM ** 3),
                     np.where(_H == _M, 36 * _I + 6 * _L + _B, DIM ** 3)]).reshape(3, -1)
del _I, _H, _L, _B, _M


def _lc_field(c: np.ndarray):
    """(LT, K): the constants of float_lc_ricci for one structure c.

    LT (216 x 36) maps vec(g) to the lowered table (x_{IHL} - x_{HLI} - x_{ILH}) / 2,
    x = c g, laid out [(I, H, L), (B, M)]: one gather of each Koszul term from c with
    a zero slot appended, at the import-time offsets _LT_TAKE.  K is _ricci_left(c).
    """
    t = np.append(c.reshape(DIM ** 3), 0).take(_LT_TAKE)
    return (0.5 * (t[0] - t[1] - t[2])).reshape(216, 36), _ricci_left(c)


def float_lc_ricci(g6: np.ndarray, field) -> np.ndarray:
    """Riemannian Ricci of the float metric g6 on the structure's field (see _lc_field).

    Ric_{HK} = Gamma_{HK}^B Gamma_{AB}^A - Gamma_{AK}^B Gamma_{HB}^A - c_{AH}^B Gamma_{BK}^A,
    the trace sum_A R(A,H)K^A that exact_lc_ricci takes on numerators.  The lowered
    table times g6^{-1} is S = Gamma_{IH}^L as [(I, H), L], since g6 is symmetric.  As
    Gamma_{AB}^A = c_{AB}^A summed over A, the first term is
    sum_{B,A} trc_B delta_{AH} Gamma_{AK}^B, so all three terms contract the same
    right factor Gamma_{AK}^B: one 6 x 36 by 36 x 6 product with the left factor
    K - Gamma_{HB}^A.
    """
    lt, k = field
    s = (lt @ g6.reshape(36)).reshape(36, DIM) @ np.linalg.inv(g6)
    # [H, (B, A)]: K - Gamma_{HB}^A; [(B, A), K]: Gamma_{AK}^B
    return (k - s.reshape(DIM, 36)) @ s.reshape(DIM, DIM, DIM).transpose(2, 0, 1).reshape(36, DIM)


# -- states and traces -----------------------------------------------------------

# m.take(_BAR)[6 i + j] = m[bar(i), bar(j)]: its conjugate is the conjugate image of m
_BAR = np.array([DIM * bar(i) + bar(j) for i in INDICES for j in INDICES])

# m[:, _BAR_COLS][i, j] = m[i, bar(j)] = g(phi_i, phi_jb): the Hermitian form of m
_BAR_COLS = np.array([bar(i) for i in INDICES])


@dataclass
class FlowState:
    """Metric components at one flow time: exact at t = 0, the rank-2 MultiTensor of the
    metric, and a complex 6 x 6 array after.  flow_state_from_hermitian's tensor is h.g
    itself, shared, so a caller that edits it edits a copy (g6.copy())."""

    t: float
    g6: object  # rank-2 MultiTensor, or complex ndarray
    structure: LieAlgebraCx

    @property
    def is_exact(self) -> bool:
        return isinstance(self.g6, MultiTensor)

    def as_float_matrix(self) -> np.ndarray:
        if self.is_exact:
            return _float_matrix(self.g6)
        return np.array(self.g6, dtype=complex)

    def validate(self):
        """Symmetry, conjugation-reality, and positive-definiteness as a real metric."""
        _validate(self.as_float_matrix())


def _validate(m: np.ndarray):
    """FlowState.validate on the float matrix m: ValueError unless m is a metric."""
    if not np.allclose(m, m.T, rtol=0, atol=1e-12):
        raise ValueError("flow metric must be symmetric")
    if not np.allclose(m, m.take(_BAR).reshape(DIM, DIM).conj(), rtol=0, atol=1e-12):
        raise ValueError("flow metric must be conjugation-real")
    if not _real_positive_definite(m):
        raise ValueError("flow metric must be positive-definite as a real metric")


def flow_state_from_hermitian(h: HermitianData, alg: LieAlgebraCx) -> FlowState:
    """The exact t = 0 state of h's metric: h.g itself, not a copy."""
    return FlowState(0.0, h.g, alg)


def _real_positive_definite(m: np.ndarray) -> bool:
    """Whether the symmetric, conjugation-real m is positive-definite as a real metric.

    Read on its Hermitian form H_{ij} = g(phi_i, phi_jb), which is Hermitian for such m:
    a real symmetric form is positive-definite exactly when its sesquilinear extension
    is, and H is that extension on the complex frame.  Cholesky reads H's lower triangle.
    """
    try:
        np.linalg.cholesky(m[:, _BAR_COLS])
        return True
    except np.linalg.LinAlgError:
        return False


def ricci_rhs(state: FlowState):
    """-Ric of the current metric: for an exact state, 6 rows of 6 GaussianRational;
    a complex array otherwise."""
    if state.is_exact:
        ric = -exact_lc_ricci(state.g6, state.structure)
        return [[ric[h, k] for k in INDICES] for h in INDICES]
    return -float_lc_ricci(state.g6, _lc_field(_structure_array(state.structure)))


def hermitian_deviation(g6) -> float:
    """Max modulus over the pure-type components g_{ij}, i, j in {1, 2, 3}."""
    if isinstance(g6, MultiTensor):
        g6 = _float_matrix(g6)
    return _deviations(g6[None])[0].item()


def _deviations(gs: np.ndarray) -> np.ndarray:
    """hermitian_deviation of each matrix of the stack gs (n, 6, 6)."""
    return np.abs(gs[:, :3, :3]).max(axis=(1, 2))


@dataclass(frozen=True)
class FlowSample:
    t: float
    g6: np.ndarray
    deviation: float
    ricci_norm: float


@dataclass
class FlowTrace:
    samples: list = field(default_factory=list)
    halt_reason: str | None = None

    @property
    def completed(self) -> bool:
        return self.halt_reason is None


def _project(m: np.ndarray) -> np.ndarray:
    """The symmetric, conjugation-real part of m: (s + bar image of s) / 4, s = m + m.T.

    The flow preserves these matrices exactly; projecting only damps rounding noise, so
    integrate_flow projects each accepted state and leaves its stage inputs as they are.
    Both halvings are exact, so this is (m1 + bar image of m1) / 2, m1 = (m + m.T) / 2,
    to the bit.
    """
    s = m + m.T
    return 0.25 * (s + s.take(_BAR).reshape(DIM, DIM).conj())


def integrate_flow(g0: FlowState, horizon: float, step: float, rhs=None) -> FlowTrace:
    """Classical fourth-order integration of dg/dt = rhs(g) from g0.

    By default rhs is -Ric; a custom field (same signature, ndarray in and
    out) supports the integrator-order tests.  The trace records every
    accepted step, sample k at t = k * step, with its Hermitian deviation and
    the Frobenius norm of the Ricci term; it truncates with a halt reason if
    positivity fails, which names the step, since an overshoot of a fixed step
    also loses positivity.
    horizon/step must be a whole number of steps (see step_count).  A step
    costs four evaluations: the field at an accepted point also starts the next.
    Each accepted state is projected (see _project) and checked for positivity.
    An exact start reaches floating point once, from its numerators, and with the
    default field its t = 0 norm is that of the exact Ricci.  The loop keeps each
    accepted state and the field there; every sample's deviation and norm are taken
    in one pass over them when the run ends or halts (_samples).
    """
    n_steps = step_count(horizon, step)
    m = g0.as_float_matrix()
    _validate(m)
    default_field = rhs is None
    if default_field:
        lc = _lc_field(_structure_array(g0.structure))
        rhs = lambda m: -float_lc_ricci(m, lc)

    k1 = rhs(m)
    norm0 = None
    if g0.is_exact and default_field:
        # the t = 0 record comes from the exact evaluation
        norm0 = float(np.linalg.norm(_float_entries(exact_lc_ricci(g0.g6, g0.structure))))
    states, fields, halted = [m], [k1], False
    for _ in range(n_steps):
        k2 = rhs(m + 0.5 * step * k1)
        k3 = rhs(m + 0.5 * step * k2)
        k4 = rhs(m + step * k3)
        m_next = _project(m + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        if not _real_positive_definite(m_next):
            halted = True
            break
        m = m_next
        # the field at the new point is this sample's Ricci term and the next step's k1
        k1 = rhs(m)
        states.append(m)
        fields.append(k1)
    trace = FlowTrace(_samples(states, fields, step, norm0))
    if halted:
        # a fixed step cannot tell the flow's loss from its own overshoot
        trace.halt_reason = (f"positivity lost at t={len(trace.samples) * step:.6g} "
                             f"(fixed step {step:.6g}; a smaller step may keep it)")
    return trace


def _samples(states, fields, step, norm0=None) -> list:
    """The FlowSamples of the accepted states, sample k at t = k * step, and the field at
    each: every deviation and Ricci norm in one pass over the stacked arrays, each
    norm summed as np.linalg.norm sums one matrix; norm0, when given, is the t = 0 norm."""
    deviations = _deviations(np.array(states)).tolist()
    f = np.array(fields).reshape(len(fields), 1, 36)
    re, im = f.real, f.imag  # views, strided as np.linalg.norm reads them
    norms = np.sqrt((re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2)).reshape(-1)).tolist()
    if norm0 is not None:
        norms[0] = norm0
    return [FlowSample(k * step, m, deviation, norm)
            for k, (m, deviation, norm) in enumerate(zip(states, deviations, norms))]


# the longest run integrate_flow takes: 10^5 samples of 6 x 6 complex states and fields
# keep about 100 MB, and at about 90 us a step the run takes about 10 s
MAX_STEPS = 100_000


def step_count(horizon: float, step: float) -> int:
    """The number of steps horizon/step; ValueError unless it is a positive whole number
    of at most MAX_STEPS.

    The ratio must be within a relative 1e-9 of that number.
    """
    if step <= 0 or horizon <= 0:
        raise ValueError("horizon and step must be positive")
    ratio = horizon / step
    n_steps = round(ratio) if np.isfinite(ratio) else 0
    if n_steps < 1 or abs(ratio - n_steps) > 1e-9 * ratio:
        raise ValueError(f"horizon/step must be a positive whole number of steps, "
                         f"got {horizon:g}/{step:g} = {ratio:g}")
    if n_steps > MAX_STEPS:
        raise ValueError(f"horizon/step asks for {n_steps} steps, more than the limit of "
                         f"{MAX_STEPS} (flow.MAX_STEPS)")
    return n_steps


def trace_to_csv(trace: FlowTrace) -> str:
    """CSV with t, the 21 independent metric components, deviation, and ricci_norm."""
    pairs = [(i, j) for i in INDICES for j in range(i, DIM)]
    header = ["t"] + [f"g_{index_name(i)}_{index_name(j)}" for i, j in pairs]
    header += ["deviation", "ricci_norm"]
    lines = [",".join(header)]
    for s in trace.samples:
        row = [f"{s.t:.12g}"]
        for i, j in pairs:
            v = s.g6[i, j]
            row.append(f"{v.real:.12g}{v.imag:+.12g}j")
        row.append(f"{s.deviation:.12g}")
        row.append(f"{s.ricci_norm:.12g}")
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
