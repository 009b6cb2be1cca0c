"""Univariate input distributions: sampling, differential entropy, mean and
support.

Entropy is returned in nats. Every entropy and mean is closed form: truncated
kinds take theirs from the moments of the standard law on the window, and
sample by its quantile or inverse survival function on the window's
probability range. All distribution objects are immutable and safe to share
between threads; sampling always takes an explicit ``numpy.random.Generator``.
Every law draws in place into the vector it is given in two steps: one
stream call fills it (``_fill``: uniforms, or numpy's normal or gamma
variates), and an elementwise transform maps the fill to the law
(``_transform``). The transform of one element reads no other, so it may run
on any row blocks, in any order; the draw is bitwise as numpy's own sampler
draws, with the same use of the stream. A fill of uniforms takes one 64-bit
draw per element, so ``model.sample_inputs`` may split it into row blocks,
each filled from a copy of the stream advanced to its first draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigurationError

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


class Distribution:
    """Common interface: sample / entropy / mean / support."""

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` i.i.d. values; deterministic for a fixed generator state."""
        if n < 1:
            raise ConfigurationError(f"sample size must be >= 1, got {n}")
        out = np.empty(n)
        self._fill(rng, out)
        self._transform(out)
        return out

    def _fill(self, rng: np.random.Generator, out: np.ndarray) -> None:
        """Fill the float64 vector ``out`` from the stream in one call."""
        rng.random(out=out)

    def _transform(self, out: np.ndarray) -> None:
        """Map the fill to the law in place, element by element, so that
        each row block of a fill may be transformed on its own."""
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
        if not (self.a < self.b and math.isfinite(self.b - self.a)):
            raise ConfigurationError(f"Uniform requires finite a < b, got ({self.a}, {self.b})")

    def _transform(self, out):
        out *= self.b - self.a
        out += self.a

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
        if not (math.isfinite(self.mu) and 0 < self.var < math.inf):
            raise ConfigurationError(
                f"Gaussian requires finite mu and 0 < var < inf, got ({self.mu}, {self.var})")

    def _fill(self, rng, out):
        rng.standard_normal(out=out)

    def _transform(self, out):
        out *= math.sqrt(self.var)
        out += self.mu

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
        # the entropy takes log((b - a) / 2), which must be a positive float
        if not (self.a <= self.c <= self.b and 0 < (self.b - self.a) / 2.0 < math.inf):
            raise ConfigurationError(
                f"Triangular requires a <= c <= b and 0 < (b - a) / 2 < inf, "
                f"got ({self.a}, {self.c}, {self.b})"
            )

    def _transform(self, out):
        # numpy's random_triangular, branch by branch: the right branch on the
        # rows past the mode, gathered, and the left one in place on every row
        a, c, b = self.a, self.c, self.b
        rows = np.flatnonzero(out > (c - a) / (b - a))
        right = out[rows]
        np.subtract(1.0, right, out=right)
        right *= (b - c) * (b - a)
        np.subtract(b, np.sqrt(right, out=right), out=right)
        out *= (c - a) * (b - a)
        np.sqrt(out, out=out)
        out += a
        out[rows] = right

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
        if not 0 < self.df < math.inf:
            raise ConfigurationError(f"ChiSquared requires 0 < df < inf, got {self.df}")

    def _fill(self, rng, out):
        rng.standard_gamma(self.df / 2.0, out=out)

    def _transform(self, out):
        out *= 2.0

    def entropy(self):
        from scipy.special import digamma, gammaln

        k2 = self.df / 2.0
        return k2 + math.log(2.0) + gammaln(k2) + (1.0 - k2) * digamma(k2)

    def mean(self):
        return self.df

    def support(self):
        return (0.0, math.inf)


class _Truncated(Distribution):
    """A location-scale law truncated to ``[lower, upper]``.

    A subclass gives ``_loc_scale()`` and, for the standard law in
    ``z = (x - loc) / scale``, the closed-form ``_zcdf``, ``_zsf`` (1 - F),
    ``_zppf``, ``_zisf`` (the inverse of S) and ``_zmoments`` (E[z] and
    E[-ln f(z)] on the window), each in the form scipy's ``norm`` or
    ``gumbel_r`` uses, so every draw is bitwise scipy's. A window right of
    the median (F(lower) > 1/2) is taken on the survival side, where its
    small tail probabilities keep their digits: sampling maps uniforms onto
    ``[S(upper), S(lower)]`` and applies the inverse survival function, and
    the mass is S(lower) - S(upper). Any other window maps uniforms onto
    ``[F(lower), F(upper)]`` and applies the quantile function.
    """

    lower: float
    upper: float

    def _check_window(self):
        if not self.lower < self.upper:
            raise ConfigurationError(
                f"truncation window requires lower < upper, got [{self.lower}, {self.upper}]"
            )
        _, lo, hi = self._window()
        if not hi - lo > 1e-12:
            raise ConfigurationError(
                f"truncation window [{self.lower}, {self.upper}] carries no probability mass"
            )
        # the entropy takes log(scale * mass)
        if not self._loc_scale()[1] * (hi - lo) > 0:
            raise ConfigurationError(
                f"{type(self).__name__}'s scale times the mass of the window "
                f"[{self.lower}, {self.upper}] underflows to 0, so it has no finite entropy")

    def _window(self) -> tuple[bool, float, float]:
        """Whether the window lies right of the median, and its probability
        range: ``(S(upper), S(lower))`` if it does, ``(F(lower), F(upper))``
        if not."""
        loc, scale = self._loc_scale()
        a, b = ((x - loc) / scale for x in (self.lower, self.upper))
        qa = float(self._zcdf(a))
        if not qa > 0.5:
            return False, qa, float(self._zcdf(b))
        return True, float(self._zsf(b)), float(self._zsf(a))

    def _transform(self, out):
        loc, scale = self._loc_scale()
        right, lo, hi = self._window()
        out *= hi - lo
        out += lo
        z = (self._zisf if right else self._zppf)(out, out=out)
        np.multiply(z, scale, out=out)
        out += loc

    def _moments(self):
        """The window's mass Z, and E[z] and E[-ln f(z)] of the standard law on it."""
        loc, scale = self._loc_scale()
        _, lo, hi = self._window()
        a, b = ((x - loc) / scale for x in (self.lower, self.upper))
        return (hi - lo, *self._zmoments(a, b, hi - lo))

    def entropy(self):
        mass, _, neg_log_f = self._moments()
        return math.log(self._loc_scale()[1] * mass) + neg_log_f

    def mean(self):
        loc, scale = self._loc_scale()
        # clamped, so rounding cannot put the mean of a narrow window outside it
        return min(max(loc + scale * self._moments()[1], self.lower), self.upper)

    def support(self):
        return (self.lower, self.upper)


@dataclass(frozen=True)
class TruncatedGaussian(_Truncated):
    mu: float
    var: float
    lower: float
    upper: float

    def __post_init__(self):
        if not (math.isfinite(self.mu) and 0 < self.var < math.inf):
            raise ConfigurationError(
                f"TruncatedGaussian requires finite mu and 0 < var < inf, "
                f"got ({self.mu}, {self.var})")
        self._check_window()

    def _loc_scale(self):
        return self.mu, math.sqrt(self.var)

    # scipy.special is imported on first use, so importing entrosa does not load it
    @staticmethod
    def _zcdf(z):
        from scipy.special import ndtr

        return ndtr(z)

    _zsf = staticmethod(lambda z: TruncatedGaussian._zcdf(-z))

    @staticmethod
    def _zppf(q, out=None):
        from scipy.special import ndtri

        return ndtri(q, out=out)

    _zisf = staticmethod(lambda q, out=None: np.negative(TruncatedGaussian._zppf(q, out=out),
                                                         out=out))

    @staticmethod
    def _zmoments(a, b, mass):
        # Johnson, Kotz & Balakrishnan: E[z] = (phi(a) - phi(b)) / Z and
        # E[-ln f] = ln(2 pi e) / 2 + (a phi(a) - b phi(b)) / 2Z
        def ends(z):  # (phi(z), z phi(z)), both 0 at an infinite end
            p = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
            return p, 0.0 if math.isinf(z) else z * p

        (pa, zpa), (pb, zpb) = ends(a), ends(b)
        return (pa - pb) / mass, _HALF_LN_2PIE + (zpa - zpb) / (2.0 * mass)


@dataclass(frozen=True)
class TruncatedGumbel(_Truncated):
    location: float
    scale: float
    lower: float
    upper: float

    def __post_init__(self):
        if not (math.isfinite(self.location) and 0 < self.scale < math.inf):
            raise ConfigurationError(
                f"TruncatedGumbel requires finite location and 0 < scale < inf, "
                f"got ({self.location}, {self.scale})")
        self._check_window()

    def _loc_scale(self):
        return self.location, self.scale

    @staticmethod
    def _zcdf(z):
        with np.errstate(over="ignore"):  # exp(-z) is inf far left, where F is 0
            return np.exp(-np.exp(-z))

    @staticmethod
    def _zsf(z):
        from scipy.special import expm1  # scipy's, as gumbel_r's sf; numpy's differs in ulps

        return -expm1(-np.exp(-z))

    @staticmethod
    def _zppf(q, out=None):
        z = np.negative(np.log(q, out=out), out=out)
        return np.negative(np.log(z, out=out), out=out)

    @staticmethod
    def _zisf(q, out=None):
        z = np.negative(np.log1p(np.negative(q, out=out), out=out), out=out)
        return np.negative(np.log(z, out=out), out=out)

    @staticmethod
    def _zmoments(a, b, mass):
        # t = e^-z is Exp(1) on [e^-b, e^-a] and -ln f(z) = z + t, so
        # Z E[z] = [E1(t) - z e^-t] and Z E[t] = [-(t + 1) e^-t] from e^-b to e^-a
        from scipy.special import exp1
        right = a > -math.log(math.log(2.0))  # past the median: brackets less their t = 0 values

        def ends(z):
            with np.errstate(over="ignore"):
                t = float(np.exp(-z))
            if t == math.inf:
                return 0.0, 0.0
            if right:  # t < ln 2 and Ein(t) = E1(t) + gamma - z, by its series
                ein = -sum((-t) ** k / (k * math.factorial(k)) for k in range(1, 18))
                return ein - (z * math.expm1(-t) if t else 0.0), -math.expm1(-t) - t * math.exp(-t)
            if t == 0.0:
                return -np.euler_gamma, -1.0
            return exp1(t) - z * math.exp(-t), -(t + 1.0) * math.exp(-t)

        (za, ta), (zb, tb) = ends(a), ends(b)
        return (za - zb) / mass, (za - zb + ta - tb) / mass


# kind name -> law; a kind takes one parameter per dataclass field
_KINDS = {
    "uniform": Uniform,
    "gaussian": Gaussian,
    "normal": Gaussian,
    "triangular": Triangular,
    "chisquared": ChiSquared,
    "truncatedgaussian": TruncatedGaussian,
    "truncatednormal": TruncatedGaussian,
    "truncatedgumbel": TruncatedGumbel,
}


def parse_distribution(text: str) -> Distribution:
    """Build a distribution from ``Kind(p1, p2, ...)`` config syntax.

    Kind names are case-insensitive and ignore spaces/underscores, e.g.
    ``TruncatedGumbel(1013, 558, 500, 3000)`` or ``uniform(7, 9)``.
    ``inf`` is accepted for open truncation ends; every other parameter
    must be finite.
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
    cls = _KINDS[key]
    arity = len(fields(cls))
    try:
        params = [float(tok) for tok in args.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigurationError(f"bad parameter list in {text!r}") from exc
    if len(params) != arity:
        raise ConfigurationError(
            f"{name.strip()} expects {arity} parameters, got {len(params)} in {text!r}"
        )
    return cls(*params)
