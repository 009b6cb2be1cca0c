"""Run configuration and the sensitivity report: schema validation,
rankings, and atomic CSV/JSON serialization."""

from __future__ import annotations

import csv
import io
import json
import math
import os
import tempfile
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .entropy import HistogramSpec
from .errors import ConfigurationError

__all__ = ["RunConfig", "SensitivityReport", "rank_descending", "METHODS", "MAX_RUNS",
           "write_atomic", "json_text"]

METHODS = ("deriv", "variance", "entropy", "kl", "bounds", "groups")

# report columns, mirroring the flood-study table layout
ROW_FIELDS = ("s_total", "v_total", "variance_bound", "h_total", "h_total_std",
              "eta", "eta_std", "kappa", "kappa_std", "h_bound", "kappa_bound",
              "nu_kappa_bound", "mu", "nu", "l", "zero_derivative_fraction", "kl")
RANK_FAMILIES = ("s_total", "variance_bound", "kappa", "kappa_bound", "nu_kappa_bound")
# largest 1-based index a text group range may name; far above any model's
# dimension, which the estimator checks once the model is built
_MAX_GROUP_INDEX = 2 ** 16
# most entropy repetitions, metastudy functions or convergence repetitions a call takes
MAX_RUNS = 10_000


def _parse_count(value) -> int:
    """A positive integer from an int or a numeric string such as '1e6'."""
    out = float(value)
    if not math.isfinite(out) or out < 1 or abs(out - round(out)) > 1e-9 * out:
        raise ValueError(f"must be a positive integer, got {value!r}")
    return int(round(out))


def _parse_groups(value) -> tuple[tuple[int, ...], ...]:
    """Groups from 1-based text ranges like '1-3,4-6,7-9', or from the JSON
    form's lists of 0-based indices."""
    if not isinstance(value, str):
        return tuple(tuple(int(i) for i in group) for group in value)
    groups = []
    for part in filter(None, (p.strip() for p in value.split(","))):
        a, sep, b = part.partition("-")
        first, last = int(a), int(b) if sep else int(a)
        # checked before the range is built, so a huge end costs nothing
        if not 1 <= first <= last <= _MAX_GROUP_INDEX:
            raise ValueError(f"bad group spec {part!r}: need 1 <= a <= b <= {_MAX_GROUP_INDEX}")
        groups.append(tuple(range(first - 1, last)))
    if not groups:
        raise ValueError(f"no groups found in {value!r}")
    return tuple(groups)


def _parse_pairs(value, parse_key, parse_value, sep: str = "=") -> tuple:
    """(key, value) pairs from a mapping, from [key, value] lists, or from
    'key<sep>value' strings; a single string is one pair."""
    if isinstance(value, dict):
        value = value.items()
    elif isinstance(value, str):
        value = [value]
    pairs = []
    for item in value:
        if isinstance(item, str):
            key, found, text = item.partition(sep)
            if not found:
                raise ValueError(f"expected KEY{sep}VALUE, got {item!r}")
            item = (key, text)
        key, val = item
        pairs.append((parse_key(key), parse_value(val)))
    return tuple(pairs)


def _parse_param(value):
    """A model parameter: a float, or a tuple of floats from a list or from
    a comma list such as '1,2,3'."""
    if isinstance(value, str) and "," in value:
        value = value.split(",")
    if isinstance(value, (list, tuple)):
        return tuple(float(v) for v in value)
    return float(value)


def _parse_names(value) -> tuple[str, ...]:
    if isinstance(value, str):
        value = value.split(",")
    return tuple(filter(None, (str(v).strip() for v in value)))


# field -> parser of its JSON form and of its text form
_PARSERS = {
    "model": str,
    "model_params": lambda v: dict(_parse_pairs(v, str.strip, _parse_param)),
    "metafunction_seed": int,
    "methods": _parse_names,
    **dict.fromkeys(("n_samples", "n_base", "n_deriv", "repetitions", "bins_output",
                     "bins_cond"), _parse_count),
    "fd_step": float,
    "seed": int,
    "groups": _parse_groups,
    "input_overrides": lambda v: _parse_pairs(v, int, str),
    "fix": lambda v: _parse_pairs(v.split(",") if isinstance(v, str) else v, int, float, ":"),
    "output": str,
}


def _coerce(key: str, parse, value):
    """``parse(value)``, with a malformed value refused as a ConfigurationError
    that names ``key``."""
    try:
        return parse(value)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigurationError(f"{key}: {exc}") from None


@dataclass(frozen=True)
class RunConfig:
    model: str = ""
    model_params: dict = field(default_factory=dict)
    metafunction_seed: int | None = None
    methods: tuple[str, ...] = ("deriv",)
    n_samples: int = 100_000
    n_base: int = 10_000
    n_deriv: int = 1000
    repetitions: int = 1
    bins_output: int = HistogramSpec.bins_output
    bins_cond: int = HistogramSpec.bins_per_conditioning_dim
    fd_step: float = 1e-5
    seed: int = 0
    groups: tuple[tuple[int, ...], ...] | None = None
    # composition of built-ins: replace input laws / pin variables (1-based keys)
    input_overrides: tuple[tuple[int, str], ...] | None = None
    fix: tuple[tuple[int, float], ...] | None = None
    output: str | None = None

    def __post_init__(self):
        if not self.model and self.metafunction_seed is None:
            raise ConfigurationError("config needs a model name or a metafunction seed")
        if self.model and self.metafunction_seed is not None:
            raise ConfigurationError("give either a model name or a metafunction seed, not both")
        if self.model_params and self.metafunction_seed is not None:
            raise ConfigurationError("model parameters apply to a builtin model, "
                                     "not to a metafunction")
        bad = [m for m in self.methods if m not in METHODS]
        if bad:
            raise ConfigurationError(f"unknown methods {bad}; known: {', '.join(METHODS)}")
        if not self.methods:
            raise ConfigurationError("at least one method is required")
        if "groups" in self.methods and not self.groups:
            raise ConfigurationError("method 'groups' requires a groups definition")
        if not 0 < self.fd_step < math.inf:
            raise ConfigurationError(f"fd_step must be positive and finite, got {self.fd_step}")
        if self.seed < 0 or self.metafunction_seed is not None and self.metafunction_seed < 0:
            raise ConfigurationError("seeds must be non-negative integers")
        HistogramSpec(self.bins_output, self.bins_cond)   # raises on bad bin counts
        if self.repetitions > MAX_RUNS:
            raise ConfigurationError(f"at most {MAX_RUNS} repetitions, got {self.repetitions}")
        for key, verb in (("fix", "pinned"), ("input_overrides", "replaced")):
            seen = [i for i, _ in getattr(self, key) or ()]
            twice = sorted({i for i in seen if seen.count(i) > 1})
            if twice:
                raise ConfigurationError(f"input x{twice[0]} is {verb} more than once in {key}")

    def to_mapping(self) -> dict:
        return asdict(self)

    @classmethod
    def from_mapping(cls, data: dict) -> "RunConfig":
        """Build a config from a field -> value mapping.

        Each value may come in its JSON form, as ``to_mapping`` and the
        report's config echo give it, or in its text form, as flags and
        config files give it: ``'1e6'``, ``'deriv,kl'``, ``'1-3,4-9'``
        (1-based), ``'4:55,6:55.5'``, ``['2=Uniform(20,40)']``, ``['r=2']``.
        A ``None`` value keeps the default. An unknown key, a malformed
        value or an invalid combination raises ``ConfigurationError``.
        """
        unknown = set(data) - set(_PARSERS)
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        return cls(**{key: _coerce(key, _PARSERS[key], value)
                      for key, value in data.items() if value is not None})


# config file section -> {file key: config field}; any other [model] key is a
# model parameter, and an [inputs] key x<i> overrides the law of input i
_FILE_KEYS = {
    "run": {k: k for k in ("methods", "n_samples", "n_base", "n_deriv", "repetitions",
                           "fd_step", "seed", "output")},
    "model": {"name": "model", "metafunction_seed": "metafunction_seed", "fix": "fix"},
    "inputs": {},
    "histogram": {"bins_output": "bins_output", "bins_per_conditioning_dim": "bins_cond"},
    "groups": {"groups": "groups"},
}


def _read_config_file(path: str | Path) -> dict:
    """The field -> text mapping of a sectioned key = value config file."""
    import configparser

    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
        sections = {name: parser.items(name) for name in parser.sections()}
    except (configparser.Error, UnicodeError) as exc:
        raise ConfigurationError(f"malformed config file {path}: {exc}") from None
    if not read:
        raise ConfigurationError(f"cannot read config file {path}")
    data: dict = {}
    for section, items in sections.items():
        if section not in _FILE_KEYS:
            raise ConfigurationError(f"unknown config section [{section}]")
        for key, value in items:
            if key in _FILE_KEYS[section]:
                data[_FILE_KEYS[section][key]] = value
            elif section == "model":
                data.setdefault("model_params", []).append(f"{key}={value}")
            elif section == "inputs" and key[:1] == "x" and key[1:].isdigit():
                data.setdefault("input_overrides", []).append(f"{key[1:]}={value}")
            else:
                raise ConfigurationError(f"unknown key {key!r} in section [{section}]")
    return data


def rank_descending(values) -> tuple[list[int], bool]:
    """Ordinal 1-based ranks by descending value: no two values share a rank.

    Finite values within a relative 1e-12 of each other tie, whatever the
    output's scale; tied values take consecutive ranks in index order, and
    the returned flag reports whether any tie was broken. None and
    non-finite values rank last, in index order, and never count as a tie.
    """
    vals = [(-math.inf if v is None or not np.isfinite(v) else float(v), i)
            for i, v in enumerate(values)]
    order = sorted(range(len(vals)), key=lambda j: (-vals[j][0], vals[j][1]))
    ranks = [0] * len(vals)
    tie = False
    for pos, j in enumerate(order):
        ranks[j] = pos + 1
        prev = vals[order[pos - 1]][0] if pos else math.nan
        if math.isfinite(prev) and math.isclose(vals[j][0], prev, rel_tol=1e-12):
            tie = True
    return ranks, tie


@dataclass
class SensitivityReport:
    metadata: dict
    rows: list  # one dict per variable: {"variable": name, metric: value|None, ...}
    rankings: dict = field(default_factory=dict)

    def compute_rankings(self):
        """Ordinal descending ranks per index family present in the rows."""
        for family in RANK_FAMILIES:
            values = [row.get(family) for row in self.rows]
            if all(v is None for v in values):
                continue
            ranks, tie = rank_descending(values)
            # reduced-out variables (None entries) carry no rank
            self.rankings[family] = {
                "ranks": [r if values[i] is not None else None for i, r in enumerate(ranks)],
                "tie_broken": tie,
            }

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        return json_text({"metadata": self.metadata, "rows": self.rows,
                          "rankings": self.rankings}, indent=2)

    def to_csv(self) -> str:
        buf = io.StringIO()
        for key in sorted(self.metadata):
            buf.write(f"# {key} = {json_text(self.metadata[key])}\n")
        columns = ["variable"] + [f for f in ROW_FIELDS
                                  if any(f in row for row in self.rows)]
        rank_cols = [f"rank_{fam}" for fam in self.rankings]
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns + rank_cols)
        for i, row in enumerate(self.rows):
            cells = [row["variable"]]
            for col in columns[1:]:
                v = row.get(col)
                cells.append("" if v is None else repr(v))
            for fam in self.rankings:
                r = self.rankings[fam]["ranks"][i]
                cells.append("" if r is None else r)
            writer.writerow(cells)
        return buf.getvalue()

    @classmethod
    def from_json(cls, text: str) -> "SensitivityReport":
        """The report ``to_json`` wrote; the strings "inf", "-inf" and "nan"
        read back as the floats they spell."""
        data = _map_leaves(json.loads(text),
                           lambda v: _NON_FINITE.get(v, v) if isinstance(v, str) else v)
        return cls(metadata=data["metadata"], rows=data["rows"],
                   rankings=data.get("rankings", {}))

    def write(self, path: str | Path):
        """Atomic write: CSV to a ``.csv`` path, JSON to any other."""
        write_atomic(path, self.to_csv() if Path(path).suffix == ".csv" else self.to_json())


# JSON has no non-finite numbers; files spell them as the CSV cells do
_NON_FINITE = {"inf": math.inf, "-inf": -math.inf, "nan": math.nan}


def _map_leaves(obj, leaf):
    """``obj`` with ``leaf`` applied to every value that is not a dict or a
    list; tuples become lists, as in JSON."""
    if isinstance(obj, dict):
        return {k: _map_leaves(v, leaf) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_map_leaves(v, leaf) for v in obj]
    return leaf(obj)


def json_text(obj, indent: int | None = None) -> str:
    """Strict JSON, keys sorted, for every file entrosa writes: a non-finite
    float is written as the string "inf", "-inf" or "nan"."""
    spelled = _map_leaves(obj, lambda v: repr(float(v))
                          if isinstance(v, float) and not math.isfinite(v) else v)
    return json.dumps(spelled, indent=indent, sort_keys=True, allow_nan=False)


def write_atomic(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` via a uniquely named temp file in the same
    directory and ``os.replace``: concurrent writers never share a temp file,
    readers never see a partial file, and a failed write leaves no temp file.
    The file gets the mode ``open`` would give it (0o666 less the umask)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    umask = os.umask(0)
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        # mkstemp creates the file 0o600 whatever the umask
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
