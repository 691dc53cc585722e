"""Exact scalar arithmetic: Gaussian rationals a + b*i over arbitrary-precision rationals.

Every quantity in the engine (metric coefficients, structure constants,
Christoffel symbols, curvature components) is a :class:`GaussianRational`.
Equality is structural and decidable, which is what makes the zero-tests of
the symmetry checks meaningful.
"""

from __future__ import annotations

import re

try:
    from gmpy2 import mpq as Rat
    BACKEND = "gmpy2"
except ImportError:  # the stdlib fallback; the test suite must pass on both backends
    from fractions import Fraction as Rat
    BACKEND = "fractions"

__all__ = ["Rat", "BACKEND", "GaussianRational", "gr", "rat_from_str", "ZERO", "ONE", "I"]


_RAT_RE = re.compile(r"([+-]?\d+)(?:/(\d+))?")


def _rat(p: str, q, literal: str):
    """Rational p/q from the matched digit strings; q is None for a bare integer."""
    if q is None:
        return Rat(int(p))
    den = int(q)
    if den == 0:
        raise ValueError(f"zero denominator in {literal!r}")
    return Rat(int(p), den)


def rat_from_str(s):
    """Parse 'p/q' or 'p' (optional sign, Unicode minus allowed) into an exact rational.

    The grammar and the error text do not depend on the rational backend: a
    zero denominator and any other malformed literal raise ``ValueError``.
    """
    text = s.strip().replace("−", "-")
    m = _RAT_RE.fullmatch(text)
    if m is None:
        raise ValueError(f"bad rational literal {s!r}; expected p or p/q")
    return _rat(m.group(1), m.group(2), s)


_TERM_RE = re.compile(r"([+-]?)(?:(\d+)(?:/(\d+))?(\*i)?|(i))")


class GaussianRational:
    """Immutable exact complex number with rational real and imaginary parts.

    The backing rationals are kept canonical (positive denominator, reduced)
    by the rational backend, so ``==`` is structural equality.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", re if type(re) is type(_RAT_ZERO) else Rat(re))
        object.__setattr__(self, "im", im if type(im) is type(_RAT_ZERO) else Rat(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through __init__; the default slot restore would setattr
        return GaussianRational, (self.re, self.im)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        o = gr(other)
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = gr(other)
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return gr(other) - self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        o = gr(other)
        a, b, c, d = self.re, self.im, o.re, o.im
        return GaussianRational(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = gr(other)
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        a, b, c, d = self.re, self.im, o.re, o.im
        return GaussianRational((a * c + b * d) / n, (b * c - a * d) / n)

    def __rtruediv__(self, other):
        return gr(other) / self

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def abs2(self):
        """|a|^2 as an exact rational."""
        return self.re * self.re + self.im * self.im

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, type(_RAT_ZERO))):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    # -- formatting ---------------------------------------------------------

    def __repr__(self):
        return f"gr({str(self)!r})"

    def __str__(self):
        """Serialize as 'p/q+r/s*i' with omitted parts, e.g. '3', '-1/2*i', 'i', '0'."""
        re_, im_ = self.re, self.im
        if im_ == 0:
            return str(re_)
        if im_ == 1:
            imag = "i"
        elif im_ == -1:
            imag = "-i"
        else:
            imag = f"{im_}*i"
        if re_ == 0:
            return imag
        sign = "+" if (im_ > 0) else ""
        return f"{re_}{sign}{imag}"

    @classmethod
    def parse(cls, s: str) -> "GaussianRational":
        """Inverse of str(); accepts '3', '-1/2*i', '3/5+4/5*i', 'i', '0'."""
        text = s.strip().replace("−", "-").replace(" ", "")
        if not text:
            raise ValueError("empty scalar literal")
        re_part = None
        im_part = None
        pos = 0
        while pos < len(text):
            m = _TERM_RE.match(text, pos)
            if m is None:
                raise ValueError(f"bad scalar literal {s!r}")
            sign, num, den, star_i, bare_i = m.groups()
            if pos > 0 and not sign:
                raise ValueError(f"bad scalar literal {s!r}: missing sign between terms")
            neg = sign == "-"
            if bare_i is not None or star_i is not None:
                if im_part is not None:
                    raise ValueError(f"bad scalar literal {s!r}: two imaginary parts")
                val = Rat(1) if bare_i is not None else _rat(num, den, s)
                im_part = -val if neg else val
            else:
                if re_part is not None:
                    raise ValueError(f"bad scalar literal {s!r}: two real parts")
                val = _rat(num, den, s)
                re_part = -val if neg else val
            pos = m.end()
        return cls(re_part if re_part is not None else 0,
                   im_part if im_part is not None else 0)


_RAT_ZERO = Rat(0)

ZERO = GaussianRational(0, 0)
ONE = GaussianRational(1, 0)
I = GaussianRational(0, 1)


def gr(x) -> GaussianRational:
    """Coerce an int, rational, string, or GaussianRational to GaussianRational."""
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, str):
        return GaussianRational.parse(x)
    return GaussianRational(x, 0)
