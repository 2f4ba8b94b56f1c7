"""Log-gamma and polygamma functions for positive arguments.

The evaluator needs log Γ and its derivatives ψ_m = (log Γ)^(m+1) up to a few
orders.  Both are computed the standard way: raise the argument above 10 with
the recurrences

    log Γ(x) = log Γ(x + 1) − log x,
    ψ_m(x)   = ψ_m(x + 1) + (−1)^(m+1) m! / x^(m+1),

then apply the asymptotic (Stirling / de Moivre) series with Bernoulli
coefficients through B_14.  At x ≥ 10 the first omitted term is below 1e-15
for every order used here, comfortably inside the 1e-10 target.
"""

from __future__ import annotations

import functools
import math

# B_2, B_4, ..., B_14
_BERNOULLI = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
)

_RAISE_THRESHOLD = 10.0
_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)

# B_2k / (2k (2k-1)), the coefficients of the Stirling series
_LOG_GAMMA_SERIES = tuple(b / (2 * k * (2 * k - 1)) for k, b in enumerate(_BERNOULLI, start=1))


@functools.cache
def _polygamma_series(m: int) -> tuple[int, int, tuple[float, ...]]:
    """m!, (m-1)! and the asymptotic series coefficients of ψ_m, computed once per order.

    The coefficients are B_2k / (2k) for m = 0 and B_2k (2k+m-1)! / (2k)! above.
    """
    if m == 0:
        return 1, 0, tuple(b / (2 * k) for k, b in enumerate(_BERNOULLI, start=1))
    coefficients = tuple(b * math.factorial(2 * k + m - 1) / math.factorial(2 * k)
                         for k, b in enumerate(_BERNOULLI, start=1))
    return math.factorial(m), math.factorial(m - 1), coefficients


def log_gamma(x: float) -> float:
    """log Γ(x) for x > 0; exactly 0 at 1 and 2, where Γ is 1, as ``math.lgamma`` is."""
    if not x > 0.0:
        raise ValueError(f"log_gamma requires a positive argument, got {x}")
    if x == 1.0 or x == 2.0:
        return 0.0
    shift = 0.0
    while x < _RAISE_THRESHOLD:
        shift -= math.log(x)
        x += 1.0
    # Stirling series: (x - 1/2) log x - x + log(2 pi)/2 + sum B_2k / (2k (2k-1) x^(2k-1))
    total = (x - 0.5) * math.log(x) - x + _HALF_LOG_TWO_PI
    inv2 = 1.0 / (x * x)
    power = 1.0 / x
    for c in _LOG_GAMMA_SERIES:
        total += c * power
        power *= inv2
    return total + shift


def polygamma(order: int, x: float) -> float:
    """ψ_m(x) = d^(m+1)/dx^(m+1) log Γ(x) for x > 0 and m = order ≥ 0."""
    if order < 0:
        raise ValueError(f"polygamma order must be non-negative, got {order}")
    if not x > 0.0:
        raise ValueError(f"polygamma requires a positive argument, got {x}")
    m = order
    shift = 0.0
    sign = -1.0 if m % 2 == 0 else 1.0  # (-1)^(m+1)
    fact_m, fact_m1, series = _polygamma_series(m)
    while x < _RAISE_THRESHOLD:
        shift += sign * fact_m / x ** (m + 1)
        x += 1.0
    if m == 0:
        # psi(x) ~ log x - 1/(2x) - sum B_2k / (2k x^(2k))
        total = math.log(x) - 0.5 / x
        inv2 = 1.0 / (x * x)
        power = inv2
        for c in series:
            total -= c * power
            power *= inv2
        return total + shift
    # psi_m(x) ~ (-1)^(m-1) [ (m-1)!/x^m + m!/(2 x^(m+1))
    #                         + sum B_2k (2k+m-1)!/((2k)! x^(2k+m)) ]
    lead = sign  # (-1)^(m-1) == (-1)^(m+1)
    total = fact_m1 / x**m + fact_m / (2.0 * x ** (m + 1))
    inv2 = 1.0 / (x * x)
    power = 1.0 / x**m * inv2
    for c in series:
        total += c * power
        power *= inv2
    return lead * total + shift


def digamma(x: float) -> float:
    """ψ(x) = d/dx log Γ(x)."""
    return polygamma(0, x)


def trigamma(x: float) -> float:
    """ψ₁(x) = d²/dx² log Γ(x)."""
    return polygamma(1, x)
