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
polynomials are immutable).  PolyExact.jet evaluates a polynomial of degree
d and its Taylor coefficients in Paterson-Stockmeyer blocks of
b = isqrt(d+1) powers: one real matrix product per block of rows gives
every block of every order, and Horner in t^b combines them.  Its table of
float coefficients is built once per polynomial, on its first evaluation.
"""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .domain import _integer
from .errors import KernelZero, NotFinite, PoleProximity

# Evaluation guard around the t = 1 singularity.
EPS_POLE = 1e-12

# Supported range for the series order n and derivative order m.  Exact
# arithmetic removes correctness risk beyond this, but the cap keeps
# coefficient sizes bounded in practice.
MAX_ORDER = 64

# Rows of t that PolyExact.jet evaluates at a time when it forms powers.  At
# the largest orders (b = 8, nine blocks) a row of A alone costs 304 bytes: t,
# the powers t^1..t^7, T = t^8, the blocks and the result.  So 4096 rows take
# 1.2 MiB and stay within a 2 MiB L2 cache.
ROW_BLOCK = 4096


# Nothing in the package calls stirling2; it stays as the benchmark's tracing-shim target.
def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind S(n, k), exact, from its closed form
    sum_(j=0..k) (-1)^(k-j) C(k, j) j^n / k!.  Returns 0 outside 0 <= k <= n,
    so the function is total.
    """
    if n < 0 or k < 0 or k > n:
        return 0
    return sum((-1) ** (k - j) * math.comb(k, j) * j**n for j in range(k + 1)) // math.factorial(k)


@dataclass(frozen=True)
class PolyExact:
    """Dense polynomial with exact integer coefficients, lowest degree first.

    The coefficients go through the package's one integer rule (a float or a
    bool raises ValueError), and trailing (highest-degree) zero coefficients
    are stripped on construction; the zero polynomial has an empty
    coefficient tuple.  The block table of jet is computed on first use and
    kept on the instance, which never changes.
    """

    coeffs: tuple

    def __post_init__(self):
        c = tuple(_integer(v, "polynomial coefficient", -math.inf) for v in self.coeffs)
        while c and c[-1] == 0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        """Degree, or -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @cached_property
    def _blocks(self) -> tuple:
        """(b, heads, c, finite): the block size b = isqrt(degree + 1) and the block table of jet.

        Taylor order j of A is sum_l c_l t^l with c_l = C(l+j, j) a_(l+j), each rounded once;
        its block q is c_(qb) + sum_(r=1..b-1) c_(qb+r) t^r.  heads[j] holds the c_(qb) of the
        blocks up to the degree, and row j Q + q of the read-only matrix c holds
        c_(qb+1..qb+b-1), zero past the degree, for Q = ceil((degree + 1) / b) blocks per order.
        Orders 0..finite-1 are in float range; an entry past it is inf.
        """
        a, d = self.coeffs, self.degree
        b = math.isqrt(d + 1)
        q = -(-(d + 1) // b)
        table = np.zeros((d + 1, q * b))  # row j: the coefficients of order j, zero-padded
        for j in range(d + 1):
            table[j, : d + 1 - j] = [_float(math.comb(i, j) * a[i]) for i in range(j, d + 1)]
        table = table.reshape(d + 1, q, b)
        heads = tuple(tuple(table[j, : -(-(d + 1 - j) // b), 0].tolist()) for j in range(d + 1))
        c = table[:, :, 1:].reshape((d + 1) * q, b - 1)
        c.setflags(write=False)
        bad = ~np.isfinite(table).all(axis=(1, 2))
        return b, heads, c, int(bad.argmax()) if bad.any() else d + 1

    def jet(self, t, k: int) -> list:
        """Taylor coefficients [A(t), A'(t), ..., A^(k)(t)/k!] on fresh complex arrays (a numpy
        complex scalar each for a 0-d t); never writes to t.

        Paterson-Stockmeyer evaluation (SIAM J. Comput. 2, 1973), ROW_BLOCK rows of t at a
        time: the powers t^1..t^(b-1) are formed once, one real matrix product with the block
        table (_blocks) gives every block of every order 0..k but its constant, and each order
        combines its blocks by Horner in T = t^b, adding the constants as scalars.  At b = 1
        (degree <= 2) there are no powers and no product, and this is plain Horner in t.
        Raises NotFinite when a table entry of an order up to k is past the float range.  A
        NaN or inf in t gives a NaN or inf in its row and leaves the other rows alone.
        """
        k = _integer(k, "jet order k", 0)
        tt = np.asarray(t, dtype=complex)
        x = tt.reshape(-1)
        y = [x * 0.0 for _ in range(k + 1)]  # not zeros: NaN and inf in t propagate
        orders = min(k, self.degree) + 1
        if orders > 0:
            b, heads, c, finite = self._blocks
            if orders > finite:
                raise NotFinite(f"a Taylor coefficient C(i, j) a_i of order j = {finite} is past the float range")
            c = c[: orders * len(heads[0])]  # order 0 has all the blocks
            rows = ROW_BLOCK if b > 1 else max(x.size, 1)  # Horner in t alone needs no blocks
            for s in range(0, x.size, rows):
                xs = x[s : s + rows]
                big_t = xs
                if b > 1:
                    p = np.empty((b - 1, xs.size), dtype=complex)
                    p[0] = xs
                    for r in range(1, b - 1):
                        np.multiply(p[r - 1], xs, out=p[r])
                    big_t = p[-1] * xs
                    g = (c @ p.view(float)).view(complex).reshape(orders, -1, xs.size)
                for j in range(orders):
                    acc, top = y[j][s : s + rows], len(heads[j]) - 1
                    for i in range(top, -1, -1):
                        if i < top:
                            acc *= big_t
                        acc += heads[j][i]
                        if b > 1:
                            acc += g[j, i]
        return [v.reshape(tt.shape) if tt.ndim else v[0] for v in y]

    def eval(self, t):
        """A(t) on a fresh array (jet at k = 0); never writes to t."""
        return self.jet(t, 0)[0]


def _float(c: int) -> float:
    """c rounded to a float, or an infinity of its sign past the float range."""
    try:
        return float(c)
    except OverflowError:
        return math.inf if c > 0 else -math.inf


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


def _exp(w, scale: float):
    """exp(scale w) for complex w and real scale on a fresh array (a numpy complex scalar for a 0-d w):
    f (1 + i tau)^2 / (1 + tau^2), f = exp(scale Re w), tau = tan(scale Im w / 2), by arithmetic on
    contiguous real arrays, f last so that the phase cannot underflow.  Exactly 1 at w = +-0 +-0j."""
    x = np.asarray(w, dtype=complex).reshape(-1)
    E = np.empty(np.shape(w), dtype=complex)  # before the scratch: a heap layout that peaks lower
    tau = np.multiply(x.real, scale)
    f = np.exp(tau)
    np.tan(np.multiply(x.imag, scale / 2, out=tau), out=tau)
    g = E.reshape(-1).view(float)[: x.size]  # 2 / (1 + tau^2) = 1 + cos(scale Im w), until E is filled
    np.multiply(tau, tau, out=g)
    g += 1
    np.divide(2, g, out=g)
    tau *= g
    tau *= f
    g -= 1
    f *= g
    E.real, E.imag = f.reshape(E.shape), tau.reshape(E.shape)
    return E if E.ndim else E[()]


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

    Both come from the jet a, a1, a2 = A(t), A'(t), A''(t)/2 of A = a_poly(n, m) alone, so
    they stay defined at m = MAX_ORDER: G = a1/a + p/(1-t), H = 2 a2/a - (a1/a)^2 + p/(1-t)^2,
    p = n+m+1.  Same pole guard and argument forms as polylog_deriv.  Raises KernelZero
    where A(t) == 0, the kernel's only zeros (an underflow of exp(m mu s) is not one).
    """
    A = a_poly(n, m)
    tt, u = _guarded(n, t)
    a, a1, a2 = A.jet(tt, 2)
    if not np.all(a):
        raise KernelZero(f"F_{m}(t) = 0 for the order -{n} polylogarithm")
    r = a1 / a
    pole = (n + m + 1) / u
    return r + pole, 2 * a2 / a - r * r + pole / u
