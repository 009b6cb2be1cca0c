"""Run configuration and the sensitivity report: schema validation,
rankings, and atomic CSV/JSON serialization."""

from __future__ import annotations

import csv
import io
import json
import math
import os
import tempfile
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import ConfigurationError

__all__ = ["RunConfig", "SensitivityReport", "rank_descending", "METHODS",
           "load_config_file", "reports_equal", "write_atomic", "OUTPUT_DIR_ENV"]

METHODS = ("deriv", "variance", "entropy", "kl", "bounds", "groups")
OUTPUT_DIR_ENV = "ENTROSA_OUTPUT_DIR"

# report columns, mirroring the flood-study table layout
ROW_FIELDS = ("s_total", "v_total", "variance_bound", "h_total", "h_total_std",
              "eta", "eta_std", "kappa", "kappa_std", "h_bound", "kappa_bound",
              "nu_kappa_bound", "mu", "nu", "l", "zero_derivative_fraction", "kl")
RANK_FAMILIES = ("s_total", "variance_bound", "kappa", "kappa_bound", "nu_kappa_bound")
_TIE_TOL = 1e-12


def _parse_count(value, name: str) -> int:
    """Accept ints or scientific-notation strings like '1e6'."""
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise ConfigurationError(f"{name} must be numeric, got {value!r}")
    if (not math.isfinite(out) or out < 1
            or out != int(out) and abs(out - round(out)) > 1e-9 * max(1.0, out)):
        raise ConfigurationError(f"{name} must be a positive integer, got {value!r}")
    return int(round(out))


def _parse_groups(text: str) -> tuple[tuple[int, ...], ...]:
    """Parse 1-based group ranges like '1-3,4-6,7-9' to 0-based index tuples."""
    groups = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            if "-" in part:
                a, _, b = part.partition("-")
                idx = tuple(range(int(a) - 1, int(b)))
            else:
                idx = (int(part) - 1,)
        except ValueError:
            raise ConfigurationError(f"bad group spec {part!r}") from None
        if not idx or min(idx) < 0:
            raise ConfigurationError(f"bad group spec {part!r}")
        groups.append(idx)
    if not groups:
        raise ConfigurationError(f"no groups found in {text!r}")
    return tuple(groups)


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
    bins_output: int = 100
    bins_cond: int = 20
    fd_step: float = 1e-5
    seed: int = 0
    groups: tuple[tuple[int, ...], ...] | None = None
    # composition of built-ins: replace input laws / pin variables (1-based keys)
    input_overrides: tuple[tuple[int, str], ...] | None = None
    fix: tuple[tuple[int, float], ...] | None = None
    output: str | None = None
    format: str = "json"

    def __post_init__(self):
        if not self.model and self.metafunction_seed is None:
            raise ConfigurationError("config needs a model name or a metafunction seed")
        if self.model and self.metafunction_seed is not None:
            raise ConfigurationError("give either a model name or a metafunction seed, not both")
        bad = [m for m in self.methods if m not in METHODS]
        if bad:
            raise ConfigurationError(f"unknown methods {bad}; known: {', '.join(METHODS)}")
        if not self.methods:
            raise ConfigurationError("at least one method is required")
        if self.format not in ("csv", "json"):
            raise ConfigurationError(f"format must be csv or json, got {self.format!r}")
        if "groups" in self.methods and not self.groups:
            raise ConfigurationError("method 'groups' requires a groups definition")
        if self.fd_step <= 0:
            raise ConfigurationError("fd_step must be positive")
        if self.seed < 0 or self.metafunction_seed is not None and self.metafunction_seed < 0:
            raise ConfigurationError("seeds must be non-negative integers")

    def to_mapping(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name == "groups" and v is not None:
                v = [list(g) for g in v]
            out[f.name] = v
        return out

    @classmethod
    def from_mapping(cls, data: dict) -> "RunConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        kw = dict(data)
        for key in ("n_samples", "n_base", "n_deriv", "repetitions", "bins_output",
                    "bins_cond"):
            if key in kw and kw[key] is not None:
                kw[key] = _parse_count(kw[key], key)
        if kw.get("seed") is not None:
            kw["seed"] = int(kw["seed"])
        if kw.get("metafunction_seed") is not None:
            kw["metafunction_seed"] = int(kw["metafunction_seed"])
        if "fd_step" in kw:
            kw["fd_step"] = float(kw["fd_step"])
        if "methods" in kw:
            if isinstance(kw["methods"], str):
                kw["methods"] = tuple(m.strip() for m in kw["methods"].split(",") if m.strip())
            else:
                kw["methods"] = tuple(kw["methods"])
        if kw.get("groups") is not None:
            g = kw["groups"]
            kw["groups"] = _parse_groups(g) if isinstance(g, str) else tuple(
                tuple(int(i) for i in grp) for grp in g)
        if kw.get("input_overrides") is not None:
            kw["input_overrides"] = tuple(
                (int(i), str(text)) for i, text in
                (kw["input_overrides"].items()
                 if isinstance(kw["input_overrides"], dict) else kw["input_overrides"]))
        if kw.get("fix") is not None:
            if isinstance(kw["fix"], str):
                pairs = []
                for part in kw["fix"].split(","):
                    idx, _, val = part.partition(":")
                    try:
                        pairs.append((int(idx), float(val)))
                    except ValueError:
                        raise ConfigurationError(
                            f"bad fix entry {part!r}, expected index:value") from None
                kw["fix"] = tuple(pairs)
            else:
                kw["fix"] = tuple((int(i), float(v)) for i, v in
                                  (kw["fix"].items() if isinstance(kw["fix"], dict)
                                   else kw["fix"]))
        if "model_params" in kw and kw["model_params"] is None:
            kw["model_params"] = {}
        return cls(**kw)


_FILE_SECTIONS = {
    "run": {"methods", "n_samples", "n_base", "n_deriv", "repetitions", "fd_step",
            "seed", "output", "format"},
    "model": None,   # name, fix, plus free-form model parameters
    "inputs": None,  # x<i> = Kind(p1, ...) distribution overrides
    "histogram": {"bins_output", "bins_per_conditioning_dim"},
    "groups": {"groups"},
}


def load_config_file(path: str | Path) -> RunConfig:
    """Load a sectioned key = value config file; unknown keys are rejected."""
    import configparser

    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigurationError(f"cannot read config file {path}")
    data: dict = {}
    for section in parser.sections():
        if section not in _FILE_SECTIONS:
            raise ConfigurationError(f"unknown config section [{section}]")
        allowed = _FILE_SECTIONS[section]
        for key, value in parser.items(section):
            if allowed is not None and key not in allowed:
                raise ConfigurationError(f"unknown key {key!r} in section [{section}]")
            if section == "model":
                if key == "name":
                    data["model"] = value
                elif key == "metafunction_seed":
                    data["metafunction_seed"] = int(value)
                elif key == "fix":
                    data["fix"] = value
                else:
                    data.setdefault("model_params", {})[key] = _parse_model_param(value)
            elif section == "inputs":
                if not key.startswith("x") or not key[1:].isdigit():
                    raise ConfigurationError(
                        f"input override keys look like x1, x2, ...; got {key!r}")
                data.setdefault("input_overrides", []).append((int(key[1:]), value))
            elif section == "histogram":
                data["bins_output" if key == "bins_output" else "bins_cond"] = value
            else:
                data[key] = value
    return RunConfig.from_mapping(data)


def _parse_model_param(value: str):
    if "," in value:
        return tuple(float(v) for v in value.split(","))
    try:
        return float(value)
    except ValueError:
        return value


def rank_descending(values) -> tuple[list[int], bool]:
    """Dense 1-based ranks by descending value.

    Ties within 1e-12 share order resolution by ascending variable index; the
    returned flag reports whether any tie-break was applied. NaNs rank last.
    """
    vals = [(-math.inf if v is None or not np.isfinite(v) else float(v), i)
            for i, v in enumerate(values)]
    order = sorted(range(len(vals)), key=lambda j: (-vals[j][0], vals[j][1]))
    ranks = [0] * len(vals)
    tie = False
    for pos, j in enumerate(order):
        ranks[j] = pos + 1
        if pos > 0 and abs(vals[j][0] - vals[order[pos - 1]][0]) <= _TIE_TOL:
            tie = True
    return ranks, tie


@dataclass
class SensitivityReport:
    metadata: dict
    rows: list  # one dict per variable: {"variable": name, metric: value|None, ...}
    rankings: dict = field(default_factory=dict)

    def compute_rankings(self):
        """Dense descending ranks per index family present in the rows."""
        for family in RANK_FAMILIES:
            values = [row.get(family) for row in self.rows]
            present = [v for v in values if v is not None]
            if not present:
                continue
            scored = [v if v is not None else float("nan") for v in values]
            ranks, tie = rank_descending(scored)
            # reduced-out variables (None entries) carry no rank
            self.rankings[family] = {
                "ranks": [r if values[i] is not None else None for i, r in enumerate(ranks)],
                "tie_broken": tie,
            }

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps({"metadata": self.metadata, "rows": self.rows,
                           "rankings": self.rankings}, indent=2, sort_keys=True)

    def to_csv(self) -> str:
        buf = io.StringIO()
        for key in sorted(self.metadata):
            buf.write(f"# {key} = {json.dumps(self.metadata[key], sort_keys=True)}\n")
        columns = ["variable"] + [f for f in ROW_FIELDS
                                  if any(f in row for row in self.rows)]
        rank_cols = [f"rank_{fam}" for fam in self.rankings]
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns + rank_cols)
        for i, row in enumerate(self.rows):
            cells = [row.get("variable", f"x{i + 1}")]
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
        data = json.loads(text)
        return cls(metadata=data["metadata"], rows=data["rows"],
                   rankings=data.get("rankings", {}))

    def write(self, path: str | Path, fmt: str | None = None):
        """Atomic write in csv or json format."""
        path = Path(path)
        fmt = fmt or ("csv" if path.suffix == ".csv" else "json")
        write_atomic(path, self.to_csv() if fmt == "csv" else self.to_json())


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


def reports_equal(a: SensitivityReport, b: SensitivityReport,
                  ignore: tuple[str, ...] = ("wall_time_s",)) -> bool:
    """Value-level equality, ignoring volatile metadata such as wall time."""
    meta_a = {k: v for k, v in a.metadata.items() if k not in ignore}
    meta_b = {k: v for k, v in b.metadata.items() if k not in ignore}
    return meta_a == meta_b and a.rows == b.rows and a.rankings == b.rankings
