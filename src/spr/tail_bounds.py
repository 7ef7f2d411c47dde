"""Tail bounds for sums of independent exponential random variables.

A sum of m independent exponentials with mean 1 is Erlang(m, 1); its CDF is
the regularized lower incomplete gamma function.  Mean-1 sums are the
extremal case for both directions (scaling reduces general means to 1), so
every function here takes mean-1 sums and the certified checks all reduce
to tails that are evaluated, not sampled:

- Lemma 4: lower tail at kappa*m, kappa <= 1/4, against
  (4 / (3 sqrt(2 pi m))) (3 kappa)^m;
- Lemma 5: the infinite geometric-mean sum (means 1, 1/r, 1/r^2, ...,
  r = 1 + delta / ln k) exceeding M ln(k) / delta, against
  2 * k^-(M / (12 delta) + 3).  That tail has no closed form; its Chernoff
  bound, an upper bound on it, is compared instead;
- Lemma 6: upper tail at C*m, C >= 6, against exp(-C m / 2).

The incomplete gamma function is evaluated by its power series for
x < m + 1 and by a Lentz continued fraction otherwise.  Both are tested to
1e-12 absolute for shapes m <= 1000.  Past that the prefactor's cancelling
terms of size m ln m cost precision (1.9e-8 at m = 10**7), so larger shapes
are refused with ParamOutOfRegimeError, as is a value that has not
converged within _MAX_ITER terms.  The Poisson sum of the same CDF is the
independent cross-check, under the same guards.  The closed-form bounds
take any shape.
"""

from __future__ import annotations

import math
from numbers import Integral

from .errors import KappaTooLargeError, ParamOutOfRegimeError

__all__ = [
    "erlang_cdf_lower",
    "erlang_cdf_lower_poisson",
    "erlang_tail_upper",
    "geometric_tail_chernoff",
    "lemma4_bound",
    "lemma4_bound_loose",
    "lemma5_bound",
    "lemma5_threshold",
    "lemma6_bound",
]

_REL_EPS = 1e-15
_MAX_ITER = 10_000
_MAX_SHAPE = 1000  # largest shape the incomplete-gamma evaluation is tested at
_CHERNOFF_TERMS = 200  # geometric-mean factors summed exactly; the rest are bounded
_GOLDEN_STEPS = 100  # golden-section steps of the Chernoff minimisation


def _check_shape(m: int) -> None:
    if not isinstance(m, Integral) or m < 1:
        raise ValueError(f"shape must be a positive integer, got {m!r}")


def _unconverged(method: str, m: int, x: float) -> ParamOutOfRegimeError:
    return ParamOutOfRegimeError(
        f"incomplete gamma {method} did not converge in {_MAX_ITER} terms at "
        f"m={m}, x={x}; shapes up to 1000 are tested"
    )


def _lower_series(m: int, x: float) -> float:
    # gamma(m, x) / Gamma(m) for x < m + 1; terms shrink geometrically.
    term = 1.0 / m
    total = term
    denom = float(m)
    for _ in range(_MAX_ITER):
        denom += 1.0
        term *= x / denom
        total += term
        if term < total * _REL_EPS:
            break
    else:
        raise _unconverged("power series", m, x)
    return total * math.exp(-x + m * math.log(x) - math.lgamma(m))


def _upper_contfrac(m: int, x: float) -> float:
    # Gamma(m, x) / Gamma(m) for x >= m + 1, modified Lentz.
    tiny = 1e-300
    b = x + 1.0 - m
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - m)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _REL_EPS:
            break
    else:
        raise _unconverged("continued fraction", m, x)
    return math.exp(-x + m * math.log(x) - math.lgamma(m)) * h


def _check_erlang(m: int, x: float) -> None:
    _check_shape(m)
    if m > _MAX_SHAPE:
        raise ParamOutOfRegimeError(
            f"shape m={m} exceeds {_MAX_SHAPE}; the incomplete gamma evaluation "
            "loses precision past it"
        )
    if x < 0:
        raise ValueError("threshold must be nonnegative")


def _erlang_tails(m: int, x: float) -> tuple[float, float]:
    """(P[Erlang(m, 1) <= x], P[Erlang(m, 1) >= x]), each side evaluated
    directly where it is the small one."""
    _check_erlang(m, x)
    if x == 0.0:
        return 0.0, 1.0
    if x < m + 1.0:
        lower = _lower_series(m, x)
        return lower, 1.0 - lower
    upper = _upper_contfrac(m, x)
    return 1.0 - upper, upper


def erlang_cdf_lower(m: int, x: float) -> float:
    """P[Erlang(m, 1) <= x], to 1e-12 absolute for m <= 1000."""
    return _erlang_tails(m, x)[0]


def erlang_tail_upper(m: int, x: float) -> float:
    """P[Erlang(m, 1) >= x] for m <= 1000, evaluated directly so tiny tails keep precision."""
    return _erlang_tails(m, x)[1]


def erlang_cdf_lower_poisson(m: int, x: float) -> float:
    """P[Erlang(m, 1) <= x] as the Poisson tail P[Poisson(x) >= m] (A&S 6.5).

    The sum over i >= m of e^-x x^i / i!, each term formed in log space with
    ``lgamma`` and the terms summed with ``fsum``.  Past i > x the terms fall
    geometrically; the sum stops once that geometric remainder is below
    1e-15 of the total.  Shares no code with :func:`erlang_cdf_lower` but
    its guards.  Tested against scipy to 1e-11 relative for m <= 1000 and
    x <= 2m.  The terms' ``lgamma`` costs precision at large x (the sum is
    1 + 3.3e-12 at x = 9000), so it is capped at 1.0; and since it cannot
    stop before i > x, an x past about 9,000 is refused as unconverged.
    """
    _check_erlang(m, x)
    if x == 0.0:
        return 0.0
    log_x = math.log(x)
    terms = []
    total = 0.0
    for i in range(m, m + _MAX_ITER):
        term = math.exp(-x + i * log_x - math.lgamma(i + 1.0))
        terms.append(term)
        total += term
        if i > x and term * x <= (i + 1.0 - x) * total * _REL_EPS:
            return min(1.0, math.fsum(terms))
    raise _unconverged("Poisson sum", m, x)


def lemma4_bound(m: int, kappa: float) -> float:
    """Lower-tail bound with the Stirling prefactor, capped at 1.

    Valid for kappa <= 1/4: the lower tail of a sum of m independent
    exponentials with means >= A, at threshold kappa * A * m.
    """
    loose = lemma4_bound_loose(m, kappa)
    return min(1.0, 4.0 / (3.0 * math.sqrt(2.0 * math.pi * m)) * loose)


def lemma4_bound_loose(m: int, kappa: float) -> float:
    """The looser (3 kappa)^m form of the same bound."""
    _check_shape(m)
    if kappa < 0:
        raise ValueError("kappa must be nonnegative")
    if kappa > 0.25:
        raise KappaTooLargeError(f"kappa={kappa} exceeds 1/4")
    return (3.0 * kappa) ** m


def _check_lemma5_regime(M: float, delta: float, k: int) -> None:
    if M < 18:
        raise ParamOutOfRegimeError(f"M={M} below the certified minimum 18")
    _check_geometric_regime(delta, k)


def _check_geometric_regime(delta: float, k: int) -> None:
    if not 0 < delta <= 0.5:
        raise ParamOutOfRegimeError(f"delta={delta} outside (0, 1/2]")
    if k < 3:
        raise ParamOutOfRegimeError(f"k={k} below 3")


def lemma5_bound(M: float, delta: float, k: int) -> float:
    """Bound 2 / k^(M / (12 delta) + 3) for the geometric-mean sum's upper tail."""
    _check_lemma5_regime(M, delta, k)
    return 2.0 * k ** -(M / (12.0 * delta) + 3.0)


def lemma5_threshold(M: float, delta: float, k: int) -> float:
    """Threshold M ln(k) / delta of the geometric-mean sum's upper tail."""
    _check_lemma5_regime(M, delta, k)
    return M * math.log(k) / delta


def lemma6_bound(m: int, C: float) -> float:
    """Bound exp(-C m / 2) for the Erlang(m, 1) upper tail at C*m, C >= 6."""
    _check_shape(m)
    return math.exp(-C * m / 2.0)


def geometric_tail_chernoff(delta: float, k: int, t: float) -> float:
    """Chernoff bound on P[S >= t], capped at 1, where S is the sum of
    independent exponentials with means 1, 1/r, 1/r^2, ...,
    r = 1 + delta / ln k.

    The bound is the infimum over 0 < s < 1 of e^(-st) prod_j (1 - s r^-j)^-1.
    The logs of the first J = _CHERNOFF_TERMS factors are summed with
    ``log1p`` and ``fsum``.  The rest are bounded in closed form: with
    mu_J = r^-J and -log(1 - y) <= y / (1 - y),

        sum_{j >= J} -log(1 - s r^-j) <= s mu_J r / ((r - 1)(1 - s mu_J)).

    The exponent is convex in s.  It is minimised by golden section over
    u = log(1 - s) in [-log(1 + t), 0]: the minimiser has 1 / (1 - s) <= t.
    Every s gives a valid bound, so the search's precision affects only
    how tight the bound is.
    """
    _check_geometric_regime(delta, k)
    if t < 0:
        raise ValueError("threshold must be nonnegative")
    r = 1.0 + delta / math.log(k)
    if r == 1.0:
        raise ParamOutOfRegimeError(f"decay ratio 1 + {delta!r} / ln {k} rounds to 1")
    means = [r**-j for j in range(1, _CHERNOFF_TERMS)]
    mu_rest = r**-_CHERNOFF_TERMS
    rest_scale = r / (r - 1.0)

    def log_bound(u: float) -> float:
        # The mean-1 factor's log is -log(1 - s) = -u, exactly.
        s = -math.expm1(u)
        head = math.fsum([-s * t, -u, *[-math.log1p(-s * mu) for mu in means]])
        y = s * mu_rest
        return head + y * rest_scale / (1.0 - y)

    shrink = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = -math.log1p(t), 0.0
    a, b = hi - shrink * (hi - lo), lo + shrink * (hi - lo)
    fa, fb = log_bound(a), log_bound(b)
    best = min(0.0, fa, fb)  # u = 0 is s = 0, the trivial bound 1
    for _ in range(_GOLDEN_STEPS):
        if fa <= fb:
            hi, b, fb = b, a, fa
            a = hi - shrink * (hi - lo)
            fa = log_bound(a)
        else:
            lo, a, fa = a, b, fb
            b = lo + shrink * (hi - lo)
            fb = log_bound(b)
        best = min(best, fa, fb)
    return min(1.0, math.exp(best))
