"""Univariate input distributions: sampling, differential entropy, mean and
support.

Entropy is returned in nats. Closed forms are used where known. Truncated
kinds sample by their closed-form quantile function on the restricted
quantile range, and integrate entropy and mean by adaptive quadrature in the
quantile domain, so semi-infinite truncation windows pose no problem. All
distribution objects are immutable and safe to share between threads;
sampling always takes an explicit ``numpy.random.Generator``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad
from scipy.special import digamma, gammaln, ndtr, ndtri

from .errors import ConfigurationError, NumericalError

__all__ = [
    "Distribution",
    "Uniform",
    "Gaussian",
    "Triangular",
    "ChiSquared",
    "TruncatedGaussian",
    "TruncatedGumbel",
    "parse_distribution",
]

_HALF_LN_2PIE = 0.5 * math.log(2.0 * math.pi * math.e)
# computed as scipy's norm computes its log-density constant, for equal bits
_LOG_SQRT_2PI = np.log(np.sqrt(2 * np.pi))


class Distribution:
    """Common interface: sample / entropy / mean / support."""

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` i.i.d. values; deterministic for a fixed generator state."""
        if n < 1:
            raise ConfigurationError(f"sample size must be >= 1, got {n}")
        return self._sample(n, rng)

    def _sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def entropy(self) -> float:
        """Differential entropy in nats."""
        raise NotImplementedError

    def mean(self) -> float:
        raise NotImplementedError

    def support(self) -> tuple[float, float]:
        """Closed support ``(lower, upper)``; infinities allowed."""
        raise NotImplementedError


@dataclass(frozen=True)
class Uniform(Distribution):
    a: float
    b: float

    def __post_init__(self):
        if not self.a < self.b:
            raise ConfigurationError(f"Uniform requires a < b, got ({self.a}, {self.b})")

    def _sample(self, n, rng):
        return rng.uniform(self.a, self.b, n)

    def entropy(self):
        return math.log(self.b - self.a)

    def mean(self):
        return 0.5 * (self.a + self.b)

    def support(self):
        return (self.a, self.b)


@dataclass(frozen=True)
class Gaussian(Distribution):
    mu: float
    var: float

    def __post_init__(self):
        if not self.var > 0:
            raise ConfigurationError(f"Gaussian requires var > 0, got {self.var}")

    def _sample(self, n, rng):
        return rng.normal(self.mu, math.sqrt(self.var), n)

    def entropy(self):
        return _HALF_LN_2PIE + 0.5 * math.log(self.var)

    def mean(self):
        return self.mu

    def support(self):
        return (-math.inf, math.inf)


@dataclass(frozen=True)
class Triangular(Distribution):
    a: float
    c: float  # mode
    b: float

    def __post_init__(self):
        if not (self.a < self.b and self.a <= self.c <= self.b):
            raise ConfigurationError(
                f"Triangular requires a <= c <= b and a < b, got ({self.a}, {self.c}, {self.b})"
            )

    def _sample(self, n, rng):
        return rng.triangular(self.a, self.c, self.b, n)

    def entropy(self):
        return 0.5 + math.log((self.b - self.a) / 2.0)

    def mean(self):
        return (self.a + self.c + self.b) / 3.0

    def support(self):
        return (self.a, self.b)


@dataclass(frozen=True)
class ChiSquared(Distribution):
    """Chi-squared law with real-valued degrees of freedom."""

    df: float

    def __post_init__(self):
        if not self.df > 0:
            raise ConfigurationError(f"ChiSquared requires df > 0, got {self.df}")

    def _sample(self, n, rng):
        return rng.chisquare(self.df, n)

    def entropy(self):
        k2 = self.df / 2.0
        return k2 + math.log(2.0) + gammaln(k2) + (1.0 - k2) * digamma(k2)

    def mean(self):
        return self.df

    def support(self):
        return (0.0, math.inf)


class _Truncated(Distribution):
    """A location-scale law truncated to ``[lower, upper]``.

    A subclass gives ``_loc_scale()`` and the standard law's ``_zcdf``,
    ``_zppf`` and ``_zlogpdf`` in ``z = (x - loc) / scale``, in closed form
    with numpy ufuncs. Loc and scale are applied here once, in the order
    scipy's frozen ``norm`` and ``gumbel_r`` apply them, so every value is
    bitwise that of the matching scipy law. Sampling maps uniforms onto the restricted quantile
    range ``[F(lower), F(upper)]`` and applies the quantile function, so the
    cost is fixed and draws are exact for a fixed stream. Entropy and mean
    integrate in the quantile domain.
    """

    lower: float
    upper: float

    def _check_window(self):
        if not self.lower < self.upper:
            raise ConfigurationError(
                f"truncation window requires lower < upper, got [{self.lower}, {self.upper}]"
            )
        qa, qb = self._qrange()
        if not qb - qa > 1e-12:
            raise ConfigurationError(
                f"truncation window [{self.lower}, {self.upper}] carries no probability mass"
            )

    def _qrange(self) -> tuple[float, float]:
        loc, scale = self._loc_scale()
        return tuple(float(self._zcdf((x - loc) / scale)) for x in (self.lower, self.upper))

    def _ppf(self, q):
        """Quantile function of the untruncated law."""
        loc, scale = self._loc_scale()
        return self._zppf(q) * scale + loc

    def _logpdf(self, x):
        """Log-density of the untruncated law."""
        loc, scale = self._loc_scale()
        return self._zlogpdf(np.asarray((x - loc) / scale)) - np.log(scale)

    def _sample(self, n, rng):
        qa, qb = self._qrange()
        return self._ppf(qa + (qb - qa) * rng.random(n))

    @lru_cache(maxsize=None)
    def entropy(self):
        # H = -(1/dF) * int_{qa}^{qb} ln(f(Q(u)) / dF) du  in the quantile domain
        qa, qb = self._qrange()
        df = qb - qa
        log_df = math.log(df)

        def integrand(u):
            return self._logpdf(self._ppf(u)) - log_df

        val, err = quad(integrand, qa, qb, epsabs=1e-12, epsrel=1e-10, limit=200)
        if err > 1e-6:
            raise NumericalError(
                f"entropy quadrature did not converge for {self!r}: estimated error {err:.3e}"
            )
        return -val / df

    @lru_cache(maxsize=None)
    def mean(self):
        qa, qb = self._qrange()
        df = qb - qa
        m1, e1 = quad(lambda u: self._ppf(qa + df * u), 0.0, 1.0, epsabs=1e-10, limit=200)
        if e1 > 1e-5 * max(1.0, abs(m1)):
            raise NumericalError(f"mean quadrature did not converge for {self!r}")
        return m1

    def support(self):
        return (self.lower, self.upper)


@dataclass(frozen=True)
class TruncatedGaussian(_Truncated):
    mu: float
    var: float
    lower: float
    upper: float

    def __post_init__(self):
        if not self.var > 0:
            raise ConfigurationError(f"TruncatedGaussian requires var > 0, got {self.var}")
        self._check_window()

    def _loc_scale(self):
        return self.mu, math.sqrt(self.var)

    _zcdf = staticmethod(ndtr)
    _zppf = staticmethod(ndtri)

    @staticmethod
    def _zlogpdf(z):
        return -z**2 / 2.0 - _LOG_SQRT_2PI


@dataclass(frozen=True)
class TruncatedGumbel(_Truncated):
    location: float
    scale: float
    lower: float
    upper: float

    def __post_init__(self):
        if not self.scale > 0:
            raise ConfigurationError(f"TruncatedGumbel requires scale > 0, got {self.scale}")
        self._check_window()

    def _loc_scale(self):
        return self.location, self.scale

    @staticmethod
    def _zcdf(z):
        return np.exp(-np.exp(-z))

    @staticmethod
    def _zppf(q):
        return -np.log(-np.log(q))

    @staticmethod
    def _zlogpdf(z):
        return -z - np.exp(-z)


_KINDS = {
    "uniform": (Uniform, 2),
    "gaussian": (Gaussian, 2),
    "normal": (Gaussian, 2),
    "triangular": (Triangular, 3),
    "chisquared": (ChiSquared, 1),
    "truncatedgaussian": (TruncatedGaussian, 4),
    "truncatednormal": (TruncatedGaussian, 4),
    "truncatedgumbel": (TruncatedGumbel, 4),
}


def parse_distribution(text: str) -> Distribution:
    """Build a distribution from ``Kind(p1, p2, ...)`` config syntax.

    Kind names are case-insensitive and ignore spaces/underscores, e.g.
    ``TruncatedGumbel(1013, 558, 500, 3000)`` or ``uniform(7, 9)``.
    ``inf`` is accepted for open truncation ends.
    """
    text = text.strip()
    if "(" not in text or not text.endswith(")"):
        raise ConfigurationError(f"cannot parse distribution {text!r}: expected Kind(p1, ...)")
    name, _, args = text[:-1].partition("(")
    key = name.strip().lower().replace("_", "").replace(" ", "").replace("-", "")
    if key not in _KINDS:
        raise ConfigurationError(
            f"unknown distribution kind {name.strip()!r}; known: "
            + ", ".join(sorted(set(_KINDS)))
        )
    cls, arity = _KINDS[key]
    try:
        params = [float(tok) for tok in args.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigurationError(f"bad parameter list in {text!r}") from exc
    if len(params) != arity:
        raise ConfigurationError(
            f"{name.strip()} expects {arity} parameters, got {len(params)} in {text!r}"
        )
    return cls(*params)
