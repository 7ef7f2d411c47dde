"""Tail bounds for sums of independent exponential random variables.

A sum of m independent exponentials with mean 1 is Erlang(m, 1); its CDF is
the regularized lower incomplete gamma function.  Mean-1 sums are the
extremal case for both directions (scaling reduces general means to 1), so
every function here takes mean-1 sums and the certified checks all reduce
to Erlang tails:

- Lemma 4: lower tail at kappa*m, kappa <= 1/4, against
  (4 / (3 sqrt(2 pi m))) (3 kappa)^m;
- Lemma 5: the infinite geometric-mean sum (means 1, 1/r, 1/r^2, ...,
  r = 1 + delta / ln k) exceeding M ln(k) / delta, against
  2 * k^-(M / (12 delta) + 3);
- Lemma 6: upper tail at C*m, C >= 6, against exp(-C m / 2).

The incomplete gamma function is evaluated by its power series for
x < m + 1 and by a Lentz continued fraction otherwise.  Both are tested to
1e-12 absolute for shapes m <= 1000.  Past that the prefactor's cancelling
terms of size m ln m cost precision (1.9e-8 at m = 10**7), so larger shapes
are refused with ParamOutOfRegimeError, as is a value that has not
converged within _MAX_ITER terms.  The closed-form bounds and the Monte
Carlo estimators take any shape.  Two Monte Carlo
estimators, one per sum, serve as the independent cross-check.
"""

from __future__ import annotations

import math
from numbers import Integral

from .errors import KappaTooLargeError, ParamOutOfRegimeError

__all__ = [
    "erlang_cdf_lower",
    "erlang_tail_upper",
    "lemma4_bound",
    "lemma4_bound_loose",
    "lemma5_bound",
    "lemma5_threshold",
    "lemma6_bound",
    "monte_carlo_lower",
    "monte_carlo_geometric",
]

_REL_EPS = 1e-15
_MAX_ITER = 10_000
_MAX_SHAPE = 1000  # largest shape the incomplete-gamma evaluation is tested at
_TRUNCATION_BUDGET = 1e-12  # discarded tail mean of the geometric-mean sum
MIN_SAMPLES = 10_000


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


def _erlang_tails(m: int, x: float) -> tuple[float, float]:
    """(P[Erlang(m, 1) <= x], P[Erlang(m, 1) >= x]), each side evaluated
    directly where it is the small one."""
    _check_shape(m)
    if m > _MAX_SHAPE:
        raise ParamOutOfRegimeError(
            f"shape m={m} exceeds {_MAX_SHAPE}; the incomplete gamma evaluation "
            "loses precision past it"
        )
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
    """P[Erlang(m, 1) <= x], to 1e-12 absolute for m <= 1000."""
    return _erlang_tails(m, x)[0]


def erlang_tail_upper(m: int, x: float) -> float:
    """P[Erlang(m, 1) >= x] for m <= 1000, evaluated directly so tiny tails keep precision."""
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


def lemma5_threshold(M: float, delta: float, k: int) -> float:
    """Threshold M ln(k) / delta of the geometric-mean sum's upper tail."""
    _check_lemma5_regime(M, delta, k)
    return M * math.log(k) / delta


def lemma6_bound(m: int, C: float) -> float:
    """Bound exp(-C m / 2) for the Erlang(m, 1) upper tail at C*m, C >= 6."""
    _check_shape(m)
    return math.exp(-C * m / 2.0)


def _geometric_terms(delta: float, k: int) -> tuple[float, int]:
    """Decay ratio r = 1 + delta / ln k of the geometric-mean sum, and the
    number of terms to simulate so the discarded tail mean is below 1e-12."""
    r = 1.0 + delta / math.log(k)
    # Tail mean after N terms is 1 / (r^(N-1) (r - 1)); push it
    # below the budget so dominance checks stay sound.
    need = math.log(1.0 / (_TRUNCATION_BUDGET * (r - 1.0))) / math.log(r)
    return r, int(math.ceil(need)) + 1


def _generator(n_samples: int, seed: int):
    """numpy's default generator for ``seed``, once ``n_samples`` is checked.

    The Monte Carlo estimators are the only users of numpy in the package,
    and import it inside the function so that no other command loads it.
    """
    import numpy as np

    if n_samples < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {n_samples}")
    return np.random.default_rng(seed)


def _estimate(hits: int, n_samples: int) -> tuple[float, float]:
    """Empirical probability and its binomial standard error."""
    p = hits / n_samples
    return p, math.sqrt(p * (1.0 - p) / n_samples)


def monte_carlo_lower(m: int, x: float, n_samples: int, seed: int) -> tuple[float, float]:
    """Monte Carlo estimate of P[Erlang(m, 1) <= x]: (probability, std_error).

    Draws row-major (rows, m) blocks of at most 20 million values.
    """
    import numpy as np

    _check_shape(m)
    if x < 0:
        raise ValueError("threshold must be nonnegative")
    rng = _generator(n_samples, seed)
    hits = 0
    chunk = max(1, 20_000_000 // m)
    remaining = n_samples
    while remaining > 0:
        rows = min(chunk, remaining)
        sums = rng.standard_exponential((rows, m)).sum(axis=1)
        hits += int(np.count_nonzero(sums <= x))
        remaining -= rows
    return _estimate(hits, n_samples)


def monte_carlo_geometric(
    delta: float, k: int, M: float, n_samples: int, seed: int
) -> tuple[float, float]:
    """Monte Carlo estimate of the upper tail at lemma5_threshold(M, delta, k)
    of the sum of independent exponentials with means 1, 1/r, 1/r^2, ...:
    (probability, std_error).

    Draws one vector of ``n_samples`` exponentials per simulated term.
    """
    import numpy as np

    threshold = lemma5_threshold(M, delta, k)
    rng = _generator(n_samples, seed)
    r, terms = _geometric_terms(delta, k)
    totals = np.zeros(n_samples)
    mean = 1.0
    for _ in range(terms):
        totals += mean * rng.standard_exponential(n_samples)
        mean /= r
    return _estimate(int(np.count_nonzero(totals >= threshold)), n_samples)
