"""Built-in benchmark models with analytic records, plus the randomized
metafunction generator.

Analytic values carry a source tag: ``closed-form`` quantities are exact and
usable as test oracles; ``reported`` quantities are reference values from the
literature, reproducible only up to estimator bias.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from typing import Mapping

import numpy as np

from .distributions import (_HALF_LN_2PIE, ChiSquared, Gaussian, Triangular,
                            TruncatedGaussian, TruncatedGumbel, Uniform)
from .errors import ConfigurationError
from .model import Model

__all__ = ["AnalyticValue", "BenchmarkModel", "MetaFunctionSpec", "builtin",
           "builtin_names", "draw_metafunction", "build_metafunction", "BASIS_FUNCTIONS"]


@dataclass(frozen=True)
class AnalyticValue:
    values: tuple[float, ...]
    source: str  # "closed-form" or "reported"


@dataclass(frozen=True)
class BenchmarkModel:
    model: Model
    analytic: Mapping[str, AnalyticValue] = field(default_factory=dict)
    var_names: tuple[str, ...] | None = None
    # coordinates pinned at their means for entropy-index estimation (index -> value)
    entropy_fix: Mapping[int, float] | None = None
    # per-variable constants for the derivative-based variance bound; None
    # where the closed form of the variable's law applies
    poincare_constants: tuple[float | None, ...] | None = None
    groups: tuple[tuple[int, ...], ...] | None = None


# ---------------------------------------------------------------------------
# evaluators

def _ishigami(x: np.ndarray) -> np.ndarray:
    sin_x1 = np.sin(x[:, 0])
    # (x3*x3)**2 squares twice where x3**4 would call libm pow
    return sin_x1 + 7.0 * np.sin(x[:, 1]) ** 2 + 0.1 * (x[:, 2] * x[:, 2]) ** 2 * sin_x1


def _gfunction(a: np.ndarray):
    def factor(x: np.ndarray, j: int, out: np.ndarray) -> np.ndarray:
        # (|4 x_j - 2| + a_j) / (1 + a_j), one n-vector, no (n, d) temporary
        np.multiply(x[:, j], 4.0, out=out)
        out -= 2.0
        np.abs(out, out=out)
        out += a[j]
        out /= 1.0 + a[j]
        return out

    def evaluator(x: np.ndarray) -> np.ndarray:
        # column by column, left to right: the order .prod(axis=1) uses, but
        # without its per-row reduction over a 3- or 9-wide axis
        y = factor(x, 0, np.empty(x.shape[0]))
        f = np.empty_like(y)
        for j in range(1, x.shape[1]):
            y *= factor(x, j, f)
        return y
    return evaluator


def _flood(x: np.ndarray) -> np.ndarray:
    q, ks, zv, zm, dd, cb, length, width = (x[:, i] for i in range(8))
    # zv + (q / (width * ks * sqrt((zm - zv) / length))) ** 0.6 - dd - cb,
    # in place on two n-vectors, in the expression's operation order
    root = np.subtract(zm, zv)
    root /= length
    np.sqrt(root, out=root)
    y = np.multiply(width, ks)
    y *= root
    np.divide(q, y, out=y)
    y **= 0.6
    np.add(zv, y, out=y)
    y -= dd
    y -= cb
    return y


# ---------------------------------------------------------------------------
# closed-form helpers

def _uniform02_log_moment(a: float) -> float:
    """E[ln|T + a|] for T ~ U(0, 2)."""
    if a == 0.0:
        return math.log(2.0) - 1.0
    return 0.5 * ((2 + a) * (math.log(2 + a) - 1) - a * (math.log(abs(a)) - 1))


def _gfunction_analytic(a: np.ndarray) -> dict[str, AnalyticValue]:
    """Exact total-effect entropies and log-derivative means for the G-function."""
    phi = [_uniform02_log_moment(ai) - math.log(1 + ai) for ai in a]
    total = sum(phi)
    h_t, l, bound = [], [], []
    for i, ai in enumerate(a):
        rest = total - phi[i]
        h_t.append(math.log(2.0 / (1 + ai)) + rest)
        l.append(math.log(4.0 / (1 + ai)) + rest)
        bound.append(l[-1])  # H(X_i) = 0 for U(0,1) inputs
    return {
        "h_total": AnalyticValue(tuple(h_t), "closed-form"),
        "l": AnalyticValue(tuple(l), "closed-form"),
        "h_bound": AnalyticValue(tuple(bound), "closed-form"),
    }


def _ishigami_mean_log_amplitude() -> float:
    """E ln(1 + 0.1 x^4) for x ~ U(-pi, pi), which is (1/pi) times the
    integral of ln(1 + 0.1 t^4) over [0, pi], in closed form.

    With s = 0.1^(1/4) t and S = 0.1^(1/4) pi it is F(S) / S, where
    F(s) = s ln(1 + s^4) - 4s + 4 G(s) is the antiderivative by parts and
    G(s), the integral of 1 / (1 + s^4), follows from
    1 + s^4 = (s^2 + sqrt2 s + 1)(s^2 - sqrt2 s + 1):
    G(s) = ln((s^2 + sqrt2 s + 1) / (s^2 - sqrt2 s + 1)) / (4 sqrt2)
           + (atan(sqrt2 s + 1) + atan(sqrt2 s - 1)) / (2 sqrt2).
    """
    s = 0.1 ** 0.25 * math.pi
    r2 = math.sqrt(2.0)
    g4 = (math.log((s * s + r2 * s + 1) / (s * s - r2 * s + 1)) / r2
          + r2 * (math.atan(r2 * s + 1) + math.atan(r2 * s - 1)))
    return math.log1p(s ** 4) - 4 + g4 / s


def _ishigami_analytic() -> dict[str, AnalyticValue]:
    """The closed-form record of the ishigami function with a = 7, b = 0.1;
    it needs no quadrature and no scipy."""
    ln2, lnpi = math.log(2.0), math.log(math.pi)
    e_ln_amp = _ishigami_mean_log_amplitude()
    h_t = (
        math.log(math.pi / 2) + e_ln_amp,
        math.log(7.0) + lnpi - 2 * ln2,
        math.log(4 * math.pi) + 3 * (lnpi - 1) - math.log(10.0) - ln2,
    )
    l = (
        -ln2 + e_ln_amp,
        math.log(3.5),
        math.log(0.4) + 3 * (lnpi - 1) - ln2,
    )
    h_x = math.log(2 * math.pi)
    b, amp = 0.1, 7.0
    pi4, pi8 = math.pi ** 4, math.pi ** 8
    v_y = 0.5 + amp ** 2 / 8 + b * pi4 / 5 + b ** 2 * pi8 / 18
    v_t = (0.5 * (1 + b * pi4 / 5) ** 2 + 8 * b ** 2 * pi8 / 225,
           amp ** 2 / 8,
           8 * b ** 2 * pi8 / 225)
    return {
        "h_total": AnalyticValue(h_t, "closed-form"),
        "l": AnalyticValue(l, "closed-form"),
        "h_bound": AnalyticValue(tuple(h_x + v for v in l), "closed-form"),
        "s_total": AnalyticValue(tuple(v / v_y for v in v_t), "closed-form"),
    }


def _ratio_chi2_analytic(k1: float, k2: float) -> dict[str, AnalyticValue]:
    from scipy.special import digamma

    # E ln X for X ~ chi2(k); g = x1/x2 is monotone in each input, so H_Ti
    # meets its bound H(X_i) + l_i, with l = (E ln 1/x2, E ln x1/x2^2)
    e_ln = lambda k: math.log(2.0) + digamma(k / 2)
    l = (-e_ln(k2), e_ln(k1) - 2 * e_ln(k2))
    h_t = (ChiSquared(k1).entropy() - e_ln(k2),
           ChiSquared(k2).entropy() - 2 * e_ln(k2) + e_ln(k1))
    r1, r2 = 1 / (k2 - 2), 1 / ((k2 - 2) * (k2 - 4))
    m1, m2 = k1, k1 * (k1 + 2)
    v_y = m2 * r2 - (m1 * r1) ** 2
    v_t = (2 * k1 * r2, m2 * (r2 - r1 ** 2))
    return {
        "h_total": AnalyticValue(h_t, "closed-form"),
        "l": AnalyticValue(l, "closed-form"),
        "h_bound": AnalyticValue(h_t, "closed-form"),
        "s_total": AnalyticValue(tuple(v / v_y for v in v_t), "closed-form"),
        "eta_total": AnalyticValue((0.510, 0.213), "reported"),
        "kl_total": AnalyticValue((0.1571, 0.0791), "reported"),
    }


def _mono5_analytic(a, sigma) -> dict[str, AnalyticValue]:
    h_t = tuple(_HALF_LN_2PIE + math.log(abs(ai) * si) for ai, si in zip(a, sigma))
    l = tuple(math.log(abs(ai)) for ai in a)
    v_t = tuple((ai * si) ** 2 for ai, si in zip(a, sigma))
    total = sum(v_t)
    return {
        "h_total": AnalyticValue(h_t, "closed-form"),
        "l": AnalyticValue(l, "closed-form"),
        "h_bound": AnalyticValue(h_t, "closed-form"),
        "s_total": AnalyticValue(tuple(v / total for v in v_t), "closed-form"),
        "v_total": AnalyticValue(v_t, "closed-form"),
    }


# ---------------------------------------------------------------------------
# builtins

_G9_CASES = {
    1: (0.02, 0.03, 0.05, 11.0, 12.5, 13.0, 34.0, 35.0, 37.0),
    2: (0.02, 0.04, 0.06, 0.03, 0.05, 0.07, 34.0, 35.0, 37.0),
    3: (0.02, 11.0, 35.0, 0.05, 12.5, 37.0, 0.03, 13.0, 14.0),
}
_G9_GROUP_ST = {  # reported group total-effect references
    1: (0.995, 0.010, 0.001),
    2: (0.694, 0.686, 0.001),
    3: (0.436, 0.393, 0.429),
}

FLOOD_VAR_NAMES = ("Q", "Ks", "Zv", "Zm", "Dd", "Cb", "L", "B")
# per-variable constants for the flood variance screening bound (shipped table)
FLOOD_POINCARE = (3.93e5, 5.77e1, 1.73e-1, 1.73e-1, 4.05e-1, 4.32e-2, 1.73e1, 4.32e0)
_FLOOD_REPORTED = {
    "s_total": AnalyticValue((0.353, 0.139, 0.186, 0.003, 0.276, 0.036, 0.000, 0.000), "reported"),
    "variance_bound": AnalyticValue((0.607, 0.226, 0.232, 0.005, 0.405, 0.043, 0.000, 0.000), "reported"),
    "kappa": AnalyticValue((0.397, 0.231, 0.327, 0.361), "reported"),
    "kappa_bound": AnalyticValue((0.543, 0.336, 0.429, 0.055, 0.450, 0.186, 0.001, 0.009), "reported"),
    "nu_kappa_bound": AnalyticValue((0.572, 0.425, 0.430, 0.061, 0.450, 0.186, 0.001, 0.010), "reported"),
}


def builtin_names() -> tuple[str, ...]:
    return ("ratio_chi2", "ishigami", "gfunction3", "gfunction9_case1",
            "gfunction9_case2", "gfunction9_case3", "mono1", "mono2", "mono3",
            "mono4", "mono5", "flood")


_PARAMS = {"mono4": ("r",), "mono5": ("a", "sigma")}


def _finite(name: str, key: str, value) -> tuple[float, ...]:
    """A builtin's parameter as finite floats, from a number or a sequence."""
    try:
        arr = np.atleast_1d(np.asarray(value, dtype=float))
    except (TypeError, ValueError):
        arr = None
    if arr is None or arr.ndim != 1 or not np.isfinite(arr).all():
        raise ConfigurationError(f"{name} parameter {key} must be finite numbers, got {value!r}")
    return tuple(float(v) for v in arr)


def builtin(name: str, **params) -> BenchmarkModel:
    """Construct a named benchmark model.

    ``mono4`` accepts ``r`` (default 2.0); ``mono5`` accepts ``a`` and
    ``sigma`` coefficient sequences (defaults (1,2,3,4,5) and unit sigmas).
    Any other parameter, and a parameter that is not finite numbers, raises
    ``ConfigurationError``.
    """
    if name not in builtin_names():
        raise ConfigurationError(
            f"unknown benchmark {name!r}; known: {', '.join(builtin_names())}")
    known = _PARAMS.get(name, ())
    unknown = sorted(set(params) - set(known))
    if unknown:
        raise ConfigurationError(f"{name} got unexpected parameters {unknown}; "
                                 f"it takes {', '.join(known) or 'none'}")
    u01 = Uniform(0.0, 1.0)

    if name == "ratio_chi2":
        k1, k2 = 10.0, 13.978
        return BenchmarkModel(
            model=Model(name, (ChiSquared(k1), ChiSquared(k2)),
                        lambda x: x[:, 0] / x[:, 1]),
            analytic=_ratio_chi2_analytic(k1, k2),
        )

    if name == "ishigami":
        upi = Uniform(-math.pi, math.pi)
        return BenchmarkModel(Model(name, (upi,) * 3, _ishigami),
                              analytic=_ishigami_analytic())

    if name == "gfunction3":
        a = np.array([-0.5, 0.0, 0.5])
        return BenchmarkModel(Model(name, (u01,) * 3, _gfunction(a)),
                              analytic=_gfunction_analytic(a))

    if name.startswith("gfunction9_case"):
        case = int(name[-1])
        a = np.array(_G9_CASES[case])
        analytic = _gfunction_analytic(a)
        analytic["group_s_total"] = AnalyticValue(_G9_GROUP_ST[case], "reported")
        return BenchmarkModel(Model(name, (u01,) * 9, _gfunction(a)),
                              analytic=analytic,
                              groups=((0, 1, 2), (3, 4, 5), (6, 7, 8)))

    if name == "mono1":
        return BenchmarkModel(
            Model(name, (u01,) * 2, lambda x: x[:, 0] + np.exp(x[:, 1])),
            analytic={"h_total": AnalyticValue((0.0, 0.5), "closed-form"),
                      "l": AnalyticValue((0.0, 0.5), "closed-form"),
                      "h_bound": AnalyticValue((0.0, 0.5), "closed-form")})

    if name == "mono2":
        return BenchmarkModel(
            Model(name, (u01,) * 2, lambda x: x[:, 0] * x[:, 1]),
            analytic={"h_total": AnalyticValue((-1.0, -1.0), "closed-form"),
                      "l": AnalyticValue((-1.0, -1.0), "closed-form"),
                      "h_bound": AnalyticValue((-1.0, -1.0), "closed-form")})

    if name == "mono3":
        ln3 = math.log(3.0)
        return BenchmarkModel(
            Model(name, (u01,) * 2, lambda x: x[:, 0] + 3.0 * x[:, 1]),
            analytic={"h_total": AnalyticValue((0.0, ln3), "closed-form"),
                      "l": AnalyticValue((0.0, ln3), "closed-form"),
                      "h_bound": AnalyticValue((0.0, ln3), "closed-form"),
                      "mu": AnalyticValue((1.0, 3.0), "closed-form"),
                      "nu": AnalyticValue((1.0, 9.0), "closed-form")})

    if name == "mono4":
        r = _finite(name, "r", params.get("r", 2.0))
        if len(r) != 1 or r[0] < 1:
            raise ConfigurationError(f"mono4 requires one r >= 1, got {params['r']!r}")
        r = r[0]
        vals = (-r, math.log(r) - r)
        return BenchmarkModel(
            Model(f"mono4[r={r:g}]", (u01,) * 2, lambda x: x[:, 0] * x[:, 1] ** r),
            analytic={"h_total": AnalyticValue(vals, "closed-form"),
                      "l": AnalyticValue(vals, "closed-form"),
                      "h_bound": AnalyticValue(vals, "closed-form")})

    if name == "mono5":
        a = _finite(name, "a", params.get("a", (1.0, 2.0, 3.0, 4.0, 5.0)))
        sigma = _finite(name, "sigma", params.get("sigma", (1.0,) * len(a)))
        if len(sigma) != len(a):
            raise ConfigurationError("mono5 requires len(sigma) == len(a)")
        # the closed-form record takes log(|a_i| sigma_i)
        if not a or 0.0 in a or min(sigma) <= 0:
            raise ConfigurationError("mono5 requires one or more nonzero a and positive sigma")
        coeffs = np.array(a)
        label = "mono5[d=%d]" % len(a)
        return BenchmarkModel(
            Model(label, tuple(Gaussian(0.0, s * s) for s in sigma),
                  lambda x: x @ coeffs),
            analytic=_mono5_analytic(a, sigma))

    if name == "flood":
        inputs = (
            TruncatedGumbel(1013.0, 558.0, 500.0, 3000.0),  # Q
            TruncatedGaussian(30.0, 64.0, 15.0, math.inf),  # Ks
            Triangular(49.0, 50.0, 51.0),                   # Zv
            Triangular(54.0, 55.0, 56.0),                   # Zm
            Uniform(7.0, 9.0),                              # Dd
            Triangular(55.0, 55.5, 56.0),                   # Cb
            Triangular(4990.0, 5000.0, 5010.0),             # L
            Triangular(295.0, 300.0, 305.0),                # B
        )
        analytic = dict(_FLOOD_REPORTED)
        analytic["exp_input_entropy"] = AnalyticValue(
            tuple(math.exp(d.entropy()) for d in inputs), "closed-form")
        return BenchmarkModel(
            Model(name, inputs, _flood),
            analytic=analytic,
            var_names=FLOOD_VAR_NAMES,
            entropy_fix={3: 55.0, 5: 55.5, 6: 5000.0, 7: 300.0},
            poincare_constants=FLOOD_POINCARE,
        )


# ---------------------------------------------------------------------------
# randomized metafunction

_E = math.e
BASIS_FUNCTIONS = (
    lambda x: x,                                   # 1 linear
    lambda x: x ** 2,                              # 2 quadratic
    lambda x: x ** 3,                              # 3 cubic
    lambda x: (np.exp(x) - 1.0) / (_E - 1.0),      # 4 exponential
    lambda x: 0.5 * np.sin(2 * np.pi * x) + 0.5,   # 5 periodic
    lambda x: np.where(x >= 0.5, 1.0, 0.0),        # 6 step
    lambda x: np.zeros_like(x),                    # 7 dummy
    lambda x: 4.0 * (x - 0.5) ** 2,                # 8 non-monotonic
    lambda x: (10.0 - 1.0 / 1.1) ** -1 * (x + 0.1) ** -1 - 0.1,  # 9 inverse
)


@dataclass(frozen=True)
class MetaFunctionSpec:
    """Fully determines one drawn 3-dimensional random function."""

    u: tuple[int, int, int]          # basis id per variable, in 1..9
    v: tuple[int, int]               # pair-interaction variable indices, in 1..3
    w: tuple[int, int, int]          # triple-interaction variable indices, in 1..3
    alpha: tuple[float, float, float]
    beta: float
    gamma: float
    seed: int = -1

    def __post_init__(self):
        if not all(1 <= k <= 9 for k in self.u):
            raise ConfigurationError(f"basis ids must lie in 1..9, got {self.u}")
        if not all(1 <= k <= 3 for k in self.v + self.w):
            raise ConfigurationError("interaction indices must lie in 1..3")

    def to_dict(self) -> dict:
        return {"u": list(self.u), "v": list(self.v), "w": list(self.w),
                "alpha": list(self.alpha), "beta": self.beta, "gamma": self.gamma,
                "seed": self.seed}

    @classmethod
    def from_dict(cls, d: Mapping) -> "MetaFunctionSpec":
        return cls(u=tuple(d["u"]), v=tuple(d["v"]), w=tuple(d["w"]),
                   alpha=tuple(d["alpha"]), beta=float(d["beta"]),
                   gamma=float(d["gamma"]), seed=int(d.get("seed", -1)))


# zero-mean two-component normal mixture for the weighting coefficients;
# equal weights, component variances 0.5 and 5
_MIX_SD = (math.sqrt(0.5), math.sqrt(5.0))


def draw_metafunction(rng: np.random.Generator, seed: int = -1) -> tuple[MetaFunctionSpec, Model]:
    """Draw a random function spec and assemble its model over U(0,1)^3."""
    u = tuple(int(k) for k in rng.integers(1, 10, size=3))
    v = tuple(int(k) for k in rng.integers(1, 4, size=2))
    w = tuple(int(k) for k in rng.integers(1, 4, size=3))
    comp = rng.integers(0, 2, size=5)
    coef = rng.standard_normal(5) * np.array([_MIX_SD[c] for c in comp])
    spec = MetaFunctionSpec(u=u, v=v, w=w,
                            alpha=tuple(float(c) for c in coef[:3]),
                            beta=float(coef[3]), gamma=float(coef[4]), seed=seed)
    return spec, build_metafunction(spec)


def build_metafunction(spec: MetaFunctionSpec) -> Model:
    """Assemble the model for a spec: additive basis terms plus one pair and
    one triple interaction term."""
    u = spec.u
    alpha = np.array(spec.alpha)

    def evaluator(x: np.ndarray) -> np.ndarray:
        # filled column by column, and each interaction multiplied in factor
        # order, the order np.prod takes: no stacked copy of the columns
        fx = np.empty((x.shape[0], 3))
        for i in range(3):
            fx[:, i] = BASIS_FUNCTIONS[u[i] - 1](x[:, i])
        y = fx @ alpha
        y += spec.beta * reduce(np.multiply, [fx[:, j - 1] for j in spec.v])
        y += spec.gamma * reduce(np.multiply, [fx[:, k - 1] for k in spec.w])
        return y

    label = "metafunction[u=%d%d%d,seed=%d]" % (*u, spec.seed)
    return Model(label, (Uniform(0.0, 1.0),) * 3, evaluator)
