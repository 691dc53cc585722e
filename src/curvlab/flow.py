"""Invariant Ricci flow: the ODE reduction of dg/dt = -Ric(g) on a fixed frame.

The flow state is a symmetric, conjugation-real 6x6 component matrix of the
metric in the complexified frame; it may carry nonzero pure-type blocks
g_{ij}, so the machinery here evaluates the Levi-Civita curvature of an
arbitrary invariant (pseudo-)metric rather than going through the Hermitian
constructor.  The first evaluation at t = 0 is exact; the integration
itself runs in floating point with a classical fourth-order scheme.

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
table, and K).  One float evaluation is one lowering product, one inverse, one raising
product and the Ricci product.

integrate_flow projects each accepted state onto the symmetric, conjugation-real
matrices; the stage inputs of a step go to the field as they are.  Positivity is
read on the Hermitian form H_{ij} = g(phi_i, phi_jb), one Cholesky of a 6 x 6
matrix: a real symmetric form is positive-definite exactly when its sesquilinear
extension is.

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
    "flow_state_from_hermitian",
    "trace_to_csv",
]

# -- exact path ----------------------------------------------------------------

def exact_lc_ricci(g6, alg: LieAlgebraCx):
    """Riemannian Ricci of an arbitrary symmetric invariant metric, exactly.

    The Ricci product of float_lc_ricci on the numerators of the raised symbols and
    c over their common denominator D, so the trace sits over D^2.  The trace
    Gamma_{AB}^A in K is c_{AB}^A summed over A, read off c's numerators over the
    same D, so only the raise uses g^{-1}.
    """
    g = MultiTensor(2, [v for row in g6 for v in row])
    _, gamma = _symbols((_lc_sum(alg.c, g),), [(_HALF,)], inverse(g))
    # per entry: 2 x 36 real products with each of the left factor's summands Gamma and
    # c, and 2 x 6 with its trace term, a sum of 6 entries of c, so counted as 72
    zg, zc, (den,), (bound,) = _over_c(gamma, alg.c)  # one spec, read as (2, ...)
    bits, terms = 2 * bound.bit_length(), 72 + 72 + 72
    g3 = zg.reshape(2, DIM, DIM, DIM)
    # [H, (B, A)]: K - Gamma_{HB}^A; [(B, A), K]: Gamma_{AK}^B
    left = _ricci_left(zc.reshape(2, DIM, DIM, DIM)) - g3.reshape(2, DIM, 36)
    ric = _tensor(2, _cmatmul(left, g3.transpose(0, 3, 1, 2).reshape(2, 36, DIM), bits, terms),
                  den * den)
    return [[ric[h, k] for k in INDICES] for h in INDICES]


def _ricci_left(c):
    """K[..., H, (B, A)] = trc_B delta_{AH} - c_{BH}^A, trc_B = sum_A c_{AB}^A: the part of
    the Ricci product's left factor that does not depend on g, for c[..., I, H, K], the
    float table (6, 6, 6) or the exact numerators [re, im] (2, 6, 6, 6), in c's dtype."""
    trc = np.trace(c, axis1=-3, axis2=-1)  # over B
    k = trc[..., None, :, None] * np.eye(DIM, dtype=np.int64)[:, None, :] - np.swapaxes(c, -3, -2)
    return k.reshape(*c.shape[:-3], DIM, 36)


# -- float path ----------------------------------------------------------------

def _structure_array(alg: LieAlgebraCx) -> np.ndarray:
    c = np.zeros((DIM, DIM, DIM), dtype=complex)
    for (i, h, k), v in alg.c.nonzero():
        c[i, h, k] = complex(float(v.re), float(v.im))
    return c


def _lc_field(c: np.ndarray):
    """(LT, K): the constants of float_lc_ricci for one structure c.

    LT (216 x 36) maps vec(g) to the lowered table (x_{IHL} - x_{HLI} - x_{ILH}) / 2,
    x = c g, laid out [(I, H, L), (B, M)]: three products of c with the identity,
    broadcast.  K is _ricci_left(c).
    """
    eye = np.eye(DIM)
    lt = 0.5 * (c[:, :, None, :, None] * eye[None, None, :, None, :]
                - c[None, :, :, :, None] * eye[:, None, None, None, :]
                - c[:, None, :, :, None] * eye[None, :, None, None, :])
    return lt.reshape(216, 36), _ricci_left(c)


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
    """Metric components at one flow time; exact entries at t = 0, floats after."""

    t: float
    g6: object  # 6x6 nested list of GaussianRational, or complex ndarray
    structure: LieAlgebraCx

    @property
    def is_exact(self) -> bool:
        return not isinstance(self.g6, np.ndarray)

    def as_float_matrix(self) -> np.ndarray:
        return np.array(self.g6 if not self.is_exact else _complex_rows(self.g6), dtype=complex)

    def validate(self):
        """Symmetry, conjugation-reality, and positive-definiteness as a real metric."""
        _validate(self.as_float_matrix())


def _complex_rows(rows):
    """The nested lists of GaussianRational rows as nested lists of complex floats."""
    return [[complex(float(v.re), float(v.im)) for v in row] for row in rows]


def _validate(m: np.ndarray):
    """FlowState.validate on the float matrix m: ValueError unless m is a metric."""
    if not np.allclose(m, m.T, rtol=0, atol=1e-12):
        raise ValueError("flow metric must be symmetric")
    if not np.allclose(m, m.take(_BAR).reshape(DIM, DIM).conj(), rtol=0, atol=1e-12):
        raise ValueError("flow metric must be conjugation-real")
    if not _real_positive_definite(m):
        raise ValueError("flow metric must be positive-definite as a real metric")


def flow_state_from_hermitian(h: HermitianData, alg: LieAlgebraCx) -> FlowState:
    g6 = [[h.g[i, j] for j in INDICES] for i in INDICES]
    return FlowState(0.0, g6, alg)


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
    """-Ric of the current metric; exact for exact states, floating otherwise."""
    if state.is_exact:
        ric = exact_lc_ricci(state.g6, state.structure)
        return [[-v for v in row] for row in ric]
    return -float_lc_ricci(state.g6, _lc_field(_structure_array(state.structure)))


def hermitian_deviation(g6) -> float:
    """Max modulus over the pure-type components g_{ij}, i, j in {1, 2, 3}."""
    if not isinstance(g6, np.ndarray):
        g6 = np.array(_complex_rows(row[:3] for row in g6[:3]))
    return float(np.abs(g6[:3, :3]).max())


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
    accepted step with its Hermitian deviation and the Frobenius norm of
    the Ricci term; it truncates with a halt reason if positivity fails, which
    names the step, since an overshoot of a fixed step also loses positivity.
    horizon/step must be a whole number of steps (see step_count).  A step
    costs four evaluations: the field at an accepted point also starts the next.
    Each accepted state is projected (see _project) and checked for positivity.
    """
    n_steps = step_count(horizon, step)
    m = g0.as_float_matrix()
    _validate(m)
    default_field = rhs is None
    if default_field:
        lc = _lc_field(_structure_array(g0.structure))
        rhs = lambda m: -float_lc_ricci(m, lc)

    trace = FlowTrace()
    k1 = rhs(m)
    if g0.is_exact and default_field:
        # the t = 0 record comes from the exact evaluation
        ric0 = exact_lc_ricci(g0.g6, g0.structure)
        norm0 = float(np.linalg.norm(np.array(_complex_rows(ric0))))
    else:
        norm0 = float(np.linalg.norm(k1))
    trace.samples.append(FlowSample(0.0, m, hermitian_deviation(m), norm0))
    t = 0.0
    for _ in range(n_steps):
        k2 = rhs(m + 0.5 * step * k1)
        k3 = rhs(m + 0.5 * step * k2)
        k4 = rhs(m + step * k3)
        m_next = _project(m + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        if not _real_positive_definite(m_next):
            # a fixed step cannot tell the flow's loss from its own overshoot
            trace.halt_reason = (f"positivity lost at t={t + step:.6g} "
                                 f"(fixed step {step:.6g}; a smaller step may keep it)")
            break
        m = m_next
        t += step
        # the field at the new point is this sample's Ricci term and the next step's k1
        k1 = rhs(m)
        trace.samples.append(FlowSample(t, m, hermitian_deviation(m),
                                        float(np.linalg.norm(k1))))
    return trace


def step_count(horizon: float, step: float) -> int:
    """The number of steps horizon/step; ValueError unless it is a positive whole number.

    The ratio must be within a relative 1e-9 of that number.
    """
    if step <= 0 or horizon <= 0:
        raise ValueError("horizon and step must be positive")
    ratio = horizon / step
    n_steps = round(ratio) if np.isfinite(ratio) else 0
    if n_steps < 1 or abs(ratio - n_steps) > 1e-9 * ratio:
        raise ValueError(f"horizon/step must be a positive whole number of steps, "
                         f"got {horizon:g}/{step:g} = {ratio:g}")
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
