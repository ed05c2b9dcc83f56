"""Exact closed forms for polylogarithms of negative integer order.

For n >= 1 the series sum_{k>=1} k^n t^k is a rational function of t whose
only pole sits at t = 1, and every t-derivative stays in that family with
the pole order raised by one:

    (d/dt)^m sum_{k>=1} k^n t^k  =  A(t) / (1 - t)^(n+m+1),

where A = A_{n,m} is a degree-n polynomial with integer coefficients.
a_poly builds it from A_{0,0} = t by two exact recurrences: t d/dt raises
the series order, A_{n+1,0} = t ((1-t) A_{n,0}' + (n+1) A_{n,0}) (the
Eulerian-number recurrence), and d/dt raises the derivative order,
A_{n,m+1} = (1-t) A_{n,m}' + (n+m+1) A_{n,m}.  The tests check the result
against the closed form

    A(t) = m! sum_{j=0..n} (-1)^(n+j) (m+1)_j S(n+1, j+1) (1-t)^(n-j),

S(.,.) the Stirling numbers of the second kind and (x)_j the rising
factorial.  All coefficient arithmetic here is exact (Python integers).
Each numerator is built once per (n, m) and kept (a_poly is memoized; the
polynomials are immutable), and conversion to floating point happens once
per polynomial, on its first evaluation.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .domain import _integer
from .errors import KernelZero, PoleProximity

# Evaluation guard around the t = 1 singularity.
EPS_POLE = 1e-12

# Supported range for the series order n and derivative order m.  Exact
# arithmetic removes correctness risk beyond this, but the cap keeps
# coefficient sizes bounded in practice.
MAX_ORDER = 64


def _stirling2_row(n: int) -> list:
    """Row S(n, 0..n), built bottom-up from S(i, j) = j S(i-1, j) + S(i-1, j-1)."""
    row = [1]  # S(0, .)
    for i in range(1, n + 1):
        row = [0] + [j * (row[j] if j < i else 0) + row[j - 1] for j in range(1, i + 1)]
    return row


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind S(n, k), exact.

    Read from the row S(n, .).  Returns 0 outside 0 <= k <= n, so the
    function is total.
    """
    if n < 0 or k < 0 or k > n:
        return 0
    return _stirling2_row(n)[k]


def pochhammer(x: int, j: int) -> int:
    """Rising factorial x (x+1) ... (x+j-1); the empty product is 1."""
    if j < 0:
        raise ValueError("pochhammer needs j >= 0")
    out = 1
    for i in range(j):
        out *= x + i
    return out


@dataclass(frozen=True)
class PolyExact:
    """Dense polynomial with exact integer coefficients, lowest degree first.

    Trailing (highest-degree) zero coefficients are stripped on
    construction; the zero polynomial has an empty coefficient tuple.  The
    float coefficients and the derivative are computed on first use and
    kept on the instance, which never changes.
    """

    coeffs: tuple

    def __post_init__(self):
        c = tuple(int(v) for v in self.coeffs)
        while c and c[-1] == 0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        """Degree, or -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def derivative(self) -> "PolyExact":
        return self._derivative

    @cached_property
    def _derivative(self) -> "PolyExact":
        c = self.coeffs
        return PolyExact(tuple(i * c[i] for i in range(1, len(c))))

    @cached_property
    def float_coeffs(self) -> tuple:
        """Coefficients rounded correctly to floats, lowest degree first."""
        return tuple(float(c) for c in self.coeffs)

    def eval(self, t):
        """Horner in complex floating point on a fresh array; never writes to t."""
        acc = np.asarray(t, dtype=complex) * 0.0  # not zeros: NaN and inf in t propagate
        for c in reversed(self.float_coeffs):
            acc *= t
            acc += c
        return acc


@dataclass(frozen=True)
class RationalForm:
    """numerator(t) / (1 - t)**pole_order with an exact integer numerator."""

    numerator: PolyExact
    pole_order: int


def _step(c: list, p: int) -> list:
    """Coefficients of (1-t) A' + p A, lowest degree first, for A with coefficients c."""
    return [(p - i) * a + (i + 1) * b for i, (a, b) in enumerate(zip(c, c[1:] + [0]))]


def a_poly(n: int, m: int) -> PolyExact:
    """Exact numerator of the m-th derivative of sum_{k>=1} k^n t^k.

    The result has degree exactly n, and a_poly(n, m) / (1-t)^(n+m+1) equals
    that derivative everywhere off t = 1.  For m >= 1 every coefficient is a
    positive integer; for m = 0 the constant term is 0 and the rest are
    positive.  Built from A_{0,0} = t by n steps of the t d/dt recurrence,
    then m steps of the d/dt recurrence (module docstring).
    """
    return _a_poly(_integer(n, "series order n", 1, MAX_ORDER), _integer(m, "derivative order m", 0, MAX_ORDER))


# At most MAX_ORDER * (MAX_ORDER + 1) immutable results, one per checked
# order pair: a_poly converts numpy integers to int before the lookup, and an
# error is never cached.
@lru_cache(maxsize=None)
def _a_poly(n: int, m: int) -> PolyExact:
    c = [0, 1]
    for k in range(1, n + 1):
        c = [0] + _step(c, k)
    for p in range(n + 1, n + m + 1):
        c = _step(c, p)
    return PolyExact(tuple(c))


def li_neg_rational(n: int) -> RationalForm:
    """Closed form of the order -n polylogarithm as numerator / (1-t)^(n+1)."""
    return RationalForm(numerator=a_poly(n, 0), pole_order=n + 1)


def _guarded(n: int, t):
    tt = np.asarray(t, dtype=complex)
    u = 1.0 - tt
    if np.any(np.abs(u) < EPS_POLE):
        raise PoleProximity(f"|1 - t| < {EPS_POLE} at the pole of the order -{n} polylogarithm")
    return tt, u  # t as complex and a fresh 1 - t, which the callers may overwrite


def _power(x, k: int):
    """x**k for an integer k >= 1 by repeated squaring (Knuth, TAOCP vol. 2,
    4.6.3) in place: overwrites x, returns x itself when k == 1, and gives a
    numpy scalar for a numpy scalar or 0-d x."""
    x = np.asarray(x)
    while k % 2 == 0:
        np.multiply(x, x, out=x)
        k //= 2
    acc = x if k == 1 else x.copy()
    while k > 1:
        k //= 2
        np.multiply(x, x, out=x)
        if k % 2:
            np.multiply(acc, x, out=acc)
    return acc if acc.ndim else acc[()]


def polylog_deriv(n: int, m: int, t):
    """m-th derivative of the order -n polylogarithm at t, a complex scalar or
    a numpy array; returns a Python complex or a fresh array and never writes
    to t.  Raises PoleProximity when any point lies within EPS_POLE of t = 1.
    The pole power (1-t)^(n+m+1) is formed by repeated squaring (_power)."""
    A = a_poly(n, m)  # checks the orders before the pole guard
    tt, u = _guarded(n, t)
    u = _power(u, n + m + 1)
    val = A.eval(tt)
    val /= u
    return complex(val) if np.ndim(t) == 0 else val


def log_derivatives(n: int, m: int, t):
    """G = F_{m+1}/F_m and H = G' = F_{m+2}/F_m - G^2 at t, F_m = polylog_deriv(n, m, .).

    Both come from A = a_poly(n, m) alone, so they stay defined at m = MAX_ORDER:
    G = A'/A + p/(1-t) and H = A''/A - (A'/A)^2 + p/(1-t)^2 with p = n+m+1.
    Same pole guard and argument forms as polylog_deriv.  Raises KernelZero
    where A(t) == 0, the kernel's only zeros (an underflow of exp(m mu s) is not one).
    """
    A = a_poly(n, m)
    dA = A.derivative()
    tt, u = _guarded(n, t)
    a = A.eval(tt)
    if not np.all(a):
        raise KernelZero(f"F_{m}(t) = 0 for the order -{n} polylogarithm")
    r = dA.eval(tt) / a
    pole = (n + m + 1) / u
    return r + pole, dA.derivative().eval(tt) / a - r * r + pole / u
