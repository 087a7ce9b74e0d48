"""Sample means, empirical tails, centralised moments, and moment-transfer
checks. Every sample statistic takes the sampled values as a float array.

Moment orders are capped at 16 (2m <= 16): beyond that the folded tails of
desk-scale sample sizes dominate the estimate and the numbers stop meaning
anything.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DomainError

MAX_MOMENT_ORDER = 16
WILSON_Z = 1.959963984540054  # two-sided 95%


def _float_values(values) -> np.ndarray:
    x = np.asarray(values, dtype=float)
    if x.size == 0:
        raise DomainError("empty sample series")
    return x


def mean_and_se(values) -> tuple[float, float]:
    """The sample mean and its standard error std(ddof=1)/sqrt(n), 0.0 at n = 1."""
    x = _float_values(values)
    se = float(x.std(ddof=1) / math.sqrt(x.size)) if x.size > 1 else 0.0
    return float(x.mean()), se


def wilson_interval(successes: int, n: int) -> tuple[float, float]:
    if n <= 0:
        raise DomainError("interval needs at least one sample")
    z = WILSON_Z
    phat = successes / n
    denom = 1.0 + z * z / n
    centre = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    # the exact interval always contains phat; rounding must not break that
    return max(0.0, min(centre - half, phat)), min(1.0, max(centre + half, phat))


def empirical_tail(values, threshold: float) -> dict:
    """Fraction of samples strictly above the threshold, with a 95% interval."""
    x = _float_values(values)
    n = x.size
    count = int((x > threshold).sum())
    lo, hi = wilson_interval(count, n)
    return {
        "threshold": float(threshold),
        "fraction": count / n,
        "count": count,
        "n": n,
        "wilson_low": lo,
        "wilson_high": hi,
    }


def centralized_moment(values, center: float, order: int) -> float:
    """E[(X - center)^order] over the samples; order must be even."""
    if order <= 0 or order % 2 != 0:
        raise DomainError(f"moment order must be a positive even integer, got {order}")
    if order > MAX_MOMENT_ORDER:
        raise DomainError(f"moment order capped at {MAX_MOMENT_ORDER}")
    return float(((_float_values(values) - center) ** order).mean())


def tail_from_moment(values, center: float, m: int, kappa: float) -> dict:
    """Markov-style tail estimate moment / kappa^(2m) next to the direct tail.

    Both sides are evaluated on the same empirical measure, so the bound
    column always dominates the direct column. A bound of 1 or more says
    nothing about a probability and is flagged `vacuous`.
    """
    if kappa <= 0:
        raise DomainError("kappa must be positive")
    x = _float_values(values)
    moment = centralized_moment(x, center, 2 * m)
    try:
        bound = moment / kappa ** (2 * m)
    except OverflowError:  # kappa^(2m) past the float range
        bound = 0.0
    except ZeroDivisionError:  # kappa^(2m) below the smallest float
        bound = math.inf if moment > 0 else 0.0
    direct = float((np.abs(x - center) > kappa).mean())
    return {
        "markov_bound": bound,
        "empirical": direct,
        "dominates": bool(bound >= direct - 1e-15),
        "vacuous": bool(bound >= 1.0),
        "moment": moment,
        "order": 2 * m,
    }


def _power(x: np.ndarray, n: int) -> np.ndarray:
    """x ** n for an integer n >= 1 by repeated squaring in x's own buffer,
    which it overwrites. On negative bases numpy's pow is an order of
    magnitude slower."""
    result = None
    while n > 1:
        if n & 1:
            result = x.copy() if result is None else np.multiply(result, x, out=result)
        np.multiply(x, x, out=x)
        n >>= 1
    return x if result is None else np.multiply(result, x, out=result)


@functools.lru_cache(maxsize=1)
def _standard_normals(samples: int, seed: int) -> np.ndarray:
    """Seeded standard normals for `moment_transfer_check`. The last draw is
    kept, so checks with the same (samples, seed), such as the two regimes
    of one `moments` run, share it."""
    z = np.random.default_rng(seed).standard_normal(samples)
    z.flags.writeable = False
    return z


def moment_transfer_check(c: float, a: float, mu: float, m: int,
                          samples: int = 1_000_000, seed: int = 0) -> dict:
    """Check the tail-to-moment transfer on a synthetic folded Gaussian.

    X = |mu + Z| with Z centred normal of variance 1/(2a) satisfies
    P[|X - mu| > kappa] <= 2 exp(-a kappa^2), so c >= 2 is required for the
    assumption to hold. Verified displays: E[(X-mu)^2m] <= c (m/a)^m and the
    two-regime bound on E[(X^2-mu^2)^2m] split at m = (9/64) a mu^2.
    """
    if c < 2.0:
        raise DomainError("the synthetic family realises tail constant 2; need c >= 2")
    if a <= 0 or mu < 0:
        raise DomainError("need a > 0 and mu >= 0")
    if m < 1 or 2 * m > MAX_MOMENT_ORDER:
        raise DomainError(f"m must satisfy 2 <= 2m <= {MAX_MOMENT_ORDER}")
    x = np.abs(mu + _standard_normals(samples, seed) / math.sqrt(2.0 * a))
    central = float(_power(x - mu, 2 * m).mean())
    central_bound = c * (m / a) ** m
    sq = x * x - mu * mu
    sq_moment = float(_power(sq, 2 * m).mean())
    split = (9.0 / 64.0) * a * mu * mu
    small_m_regime = m <= split
    if small_m_regime:
        sq_bound = 2.0 * c * (9.0 * m * mu * mu / a) ** m
    else:
        sq_bound = 2.0 * c * (64.0 * m * m / (a * a)) ** m
    return {
        "central_moment": central,
        "central_bound": central_bound,
        "central_ok": bool(central <= central_bound),
        "square_moment": sq_moment,
        "square_bound": sq_bound,
        "square_ok": bool(sq_moment <= sq_bound),
        "regime": "small_m" if small_m_regime else "large_m",
        "regime_split": split,
        "samples": samples,
    }


def levy_consistency(values, dim: int, lipschitz: float,
                     kappas) -> list[dict]:
    """Empirical deviation tails against the unitary-group concentration bound
    2 exp(-dim kappa^2 / (4 L^2)), padded by three Wilson half-widths. The
    bound is reported clipped to 1, and flagged `vacuous` when its unclipped
    value is 1 or more."""
    if lipschitz <= 0:
        raise DomainError("Lipschitz constant must be positive")
    x = _float_values(values)
    mean = float(x.mean())
    n = x.size
    out = []
    for kappa in kappas:
        count = int((np.abs(x - mean) >= kappa).sum())
        lo, hi = wilson_interval(count, n)
        half = (hi - lo) / 2.0
        bound = 2.0 * math.exp(-dim * kappa * kappa / (4.0 * lipschitz * lipschitz))
        out.append({
            "kappa": float(kappa),
            "empirical": count / n,
            "bound": min(bound, 1.0),
            "halfwidth": half,
            "ok": bool(count / n <= min(bound, 1.0) + 3.0 * half),
            "vacuous": bool(bound >= 1.0),
        })
    return out
