"""Tail bounds for sums of independent exponential random variables.

A sum of m independent exponentials with equal mean 1 is Erlang(m, 1); its
CDF is the regularized lower incomplete gamma function.  Mean-1 sums are the
extremal case for both directions (scaling reduces general means to 1), so
the certified checks all reduce to Erlang tails:

- lower tail at kappa*m, kappa <= 1/4, against (4 / (3 sqrt(2 pi m))) (3 kappa)^m;
- upper tail at C*m, C >= 6, against exp(-C m / 2);
- the infinite geometric-mean sum (means A, A/r, A/r^2, ...) exceeding
  M * A * log(k) / delta, against 2 * k^-(M / (12 delta) + 3).

The incomplete gamma function is evaluated by its power series for
x < m + 1 and by a Lentz continued fraction otherwise, to 1e-12 absolute.
A Monte Carlo estimator serves as the independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

from .errors import KappaTooLargeError, ParamOutOfRegimeError

__all__ = [
    "ErlangQuery",
    "GeometricSumQuery",
    "MonteCarloResult",
    "Lemma6Result",
    "erlang_cdf_lower",
    "erlang_tail_upper",
    "lemma4_bound",
    "lemma4_bound_loose",
    "lemma5_bound",
    "lemma6_check",
    "monte_carlo_tail",
]

_REL_EPS = 1e-15
_MAX_ITER = 10_000
_TRUNCATION_BUDGET = 1e-12  # discarded tail mean, relative to A
MIN_SAMPLES = 10_000


def _check_shape(m: int) -> None:
    if not isinstance(m, Integral) or m < 1:
        raise ValueError(f"shape must be a positive integer, got {m!r}")


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
    return math.exp(-x + m * math.log(x) - math.lgamma(m)) * h


def _erlang_tails(m: int, x: float) -> tuple[float, float]:
    """(P[Erlang(m, 1) <= x], P[Erlang(m, 1) >= x]), each side evaluated
    directly where it is the small one."""
    _check_shape(m)
    if x < 0:
        raise ValueError("threshold must be nonnegative")
    if x == 0.0:
        return 0.0, 1.0
    if x < m + 1.0:
        lower = _lower_series(m, x)
        return lower, 1.0 - lower
    upper = _upper_contfrac(m, x)
    return 1.0 - upper, upper


def erlang_cdf_lower(m: int, x: float) -> float:
    """P[Erlang(m, 1) <= x], to 1e-12 absolute."""
    return _erlang_tails(m, x)[0]


def erlang_tail_upper(m: int, x: float) -> float:
    """P[Erlang(m, 1) >= x]; evaluated directly so tiny tails keep precision."""
    return _erlang_tails(m, x)[1]


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
    if not 0 < delta <= 0.5:
        raise ParamOutOfRegimeError(f"delta={delta} outside (0, 1/2]")
    if k < 3:
        raise ParamOutOfRegimeError(f"k={k} below 3")


def lemma5_bound(M: float, delta: float, k: int) -> float:
    """Bound 2 / k^(M / (12 delta) + 3) for the geometric-mean sum's upper tail."""
    _check_lemma5_regime(M, delta, k)
    return 2.0 * k ** -(M / (12.0 * delta) + 3.0)


@dataclass(frozen=True)
class Lemma6Result:
    exact_tail: float
    bound: float
    holds: bool


def lemma6_check(m: int, C: float) -> Lemma6Result:
    """Exact Erlang upper tail at C*m against exp(-C m / 2)."""
    exact = erlang_tail_upper(m, C * m)
    bound = math.exp(-C * m / 2.0)
    return Lemma6Result(exact, bound, exact <= bound)


@dataclass(frozen=True)
class ErlangQuery:
    """Sum of ``shape`` independent exponentials with mean ``a`` each;
    the Monte Carlo estimate is the lower tail P[sum <= threshold]."""

    shape: int
    a: float
    threshold: float

    def __post_init__(self):
        _check_shape(self.shape)
        if self.a <= 0:
            raise ValueError("mean must be positive")
        if self.threshold < 0:
            raise ValueError("threshold must be nonnegative")


@dataclass(frozen=True)
class GeometricSumQuery:
    """Sum of independent exponentials with means a, a/r, a/r^2, ...;
    the Monte Carlo estimate is the upper tail at M * a * log(k) / delta.

    The decay ratio ``r`` is 1 + delta / ln k.  ``truncation`` is the number
    of simulated terms, chosen so the discarded tail mean is below 1e-12 * a.
    """

    a: float
    delta: float
    k: int
    big_m: float

    def __post_init__(self):
        if self.a <= 0:
            raise ValueError("mean must be positive")
        _check_lemma5_regime(self.big_m, self.delta, self.k)

    @property
    def r(self) -> float:
        return 1.0 + self.delta / math.log(self.k)

    @property
    def truncation(self) -> int:
        # Tail mean after N terms is a / (r^(N-1) (r - 1)); push it
        # below the budget so dominance checks stay sound.
        r = self.r
        need = math.log(1.0 / (_TRUNCATION_BUDGET * (r - 1.0))) / math.log(r)
        return int(math.ceil(need)) + 1

    @property
    def threshold(self) -> float:
        return self.big_m * self.a * math.log(self.k) / self.delta


@dataclass(frozen=True)
class MonteCarloResult:
    probability: float
    std_error: float
    samples: int


def monte_carlo_tail(query, n_samples: int, seed: int) -> MonteCarloResult:
    """Empirical tail probability with its binomial standard error.

    The only user of numpy in the package, imported here so that no other
    command loads it.
    """
    import numpy as np

    if n_samples < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {n_samples}")
    rng = np.random.default_rng(seed)

    if isinstance(query, ErlangQuery):
        hits = 0
        chunk = max(1, int(20_000_000 // max(query.shape, 1)))
        remaining = n_samples
        while remaining > 0:
            rows = min(chunk, remaining)
            sums = query.a * rng.standard_exponential((rows, query.shape)).sum(axis=1)
            hits += int(np.count_nonzero(sums <= query.threshold))
            remaining -= rows
        p = hits / n_samples
    elif isinstance(query, GeometricSumQuery):
        totals = np.zeros(n_samples)
        mean = query.a
        r = query.r
        for _ in range(query.truncation):
            totals += mean * rng.standard_exponential(n_samples)
            mean /= r
        p = float(np.count_nonzero(totals >= query.threshold)) / n_samples
    else:
        raise TypeError(f"unsupported query {type(query).__name__}")

    std_error = math.sqrt(p * (1.0 - p) / n_samples)
    return MonteCarloResult(p, std_error, n_samples)
