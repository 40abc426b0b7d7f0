"""Run configuration: flat dotted keys in a plain text file plus overrides.

Every default equals the baseline specification, so a bare run with only
the two data paths reproduces the headline setup: thresholds 0.30/0.60,
AR(12) shocks, horizon 24, 12 lags, HAC lag 12, tanh window 2010-01 to
2018-12, and the standard breakpoint window clusters.

File format: one ``key = value`` per line. A ``#`` starts a comment at
the start of a line or after whitespace within a value, so a value such
as ``out#1`` keeps its ``#``. Window lists are comma-separated
``start:end`` month ranges.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .csvio import context, fmt, parse_int, parse_number, read_utf8
from .errors import DataError
from .phase import PhaseThresholds
from .series import MonthIndex

# Nested window clusters around the three candidate regime changes, as breaks.cluster.<name>
# values. The outermost windows span roughly 1983-1997, 2008-2019, and 2018-2025; each
# cluster tightens in steps while keeping at least 49 months so a 24-month minimum segment
# fits on both sides.
DEFAULT_CLUSTERS = {
    "1990": "1983-01:1997-12,1984-01:1996-12,1985-01:1995-12,1986-01:1994-12,1987-01:1993-12",
    "2013": "2008-01:2019-12,2009-01:2018-12,2010-01:2017-12,2010-07:2017-06,2011-01:2016-12",
    "2022": "2018-01:2025-12,2018-07:2025-06,2019-01:2024-12,2019-07:2024-06,2020-01:2024-12",
}

SHOCK_KINDS = ("ar_resid", "detrended")
_INLINE_COMMENT = re.compile(r"\s#")  # within a value; a '#' not after whitespace is kept
_BOOLS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _utf8(text: str) -> bool:
    """False for text holding a lone surrogate, as a non-UTF-8 byte of argv decodes to."""
    return text.encode("utf-8", "replace").decode("utf-8") == text


def _windows(raw: str) -> list[tuple[MonthIndex, MonthIndex]]:
    """The comma-separated YYYY-MM:YYYY-MM month ranges of a breaks.cluster.<name> value."""
    windows = []
    for text in filter(None, map(str.strip, raw.split(","))):
        a, sep, b = text.partition(":")
        if not sep:
            raise DataError(f"window {text!r} must look like YYYY-MM:YYYY-MM")
        windows.append((MonthIndex.parse(a), MonthIndex.parse(b)))
    return windows


def _setting(key: str, default, parse, least=None):
    """A RunConfig field: its config key, default, parser of the key's text, least value or None."""
    return field(default=default, metadata={"key": key, "parse": parse, "least": least})


@dataclass(frozen=True)
class RunConfig:
    # declared in the order config_text writes the keys
    monetary_path: str = _setting("data.monetary", "", str)
    cpi_path: str = _setting("data.cpi", "", str)
    out_dir: str = _setting("out.dir", "out", str)
    cash_max: float = _setting("phase.cash_max", PhaseThresholds.cash_max, parse_number)
    reserve_min: float = _setting("phase.reserve_min", PhaseThresholds.reserve_min, parse_number)
    tanh_start: MonthIndex = _setting("tanh.window_start", MonthIndex(2010, 1), MonthIndex.parse)
    tanh_end: MonthIndex = _setting("tanh.window_end", MonthIndex(2018, 12), MonthIndex.parse)
    shock_kind: str = _setting("shock.kind", "ar_resid", str)
    shock_p: int = _setting("shock.p", 12, parse_int, 1)
    horizon: int = _setting("lp.horizon", 24, parse_int, 0)
    lags: int = _setting("lp.lags", 12, parse_int, 0)
    hac_lag: int = _setting("lp.hac_lag", 12, parse_int, 0)
    min_segment: int = _setting("breaks.min_segment", 24, parse_int, 1)
    robustness: bool = _setting("irf.robustness", False, lambda v: _BOOLS[v.lower()])
    synth_months: int = _setting("synth.months", 612, parse_int)
    seed: int = _setting("seed", 1, parse_int, 0)
    clusters: dict = field(default_factory=dict)  # empty: DEFAULT_CLUSTERS

    def __post_init__(self):
        if not self.clusters:
            clusters = {name: _windows(text) for name, text in DEFAULT_CLUSTERS.items()}
            object.__setattr__(self, "clusters", clusters)
        for name, windows in self.clusters.items():
            _check(f"breaks.cluster.{name}", windows)
        for key, setting in _SCALAR_KEYS.items():
            _check(key, getattr(self, setting.name))
        PhaseThresholds(self.cash_max, self.reserve_min)  # raises on invalid thresholds
        if self.tanh_end < self.tanh_start:
            raise DataError(
                f"tanh.window_start {self.tanh_start} is after tanh.window_end {self.tanh_end}"
            )


# key: the RunConfig field it sets, in declaration order
_SCALAR_KEYS = {f.metadata["key"]: f for f in fields(RunConfig) if f.metadata}


def key_text(cfg: RunConfig, key: str) -> str:
    """The value cfg gives a scalar key, as config_text writes it: 0.30 is 0.3."""
    return fmt(getattr(cfg, _SCALAR_KEYS[key].name))


def _check(key: str, value) -> None:
    """Refuse a value outside its key's own range; the threshold order spans two keys."""
    if key.startswith("breaks.cluster."):
        for a, b in value:
            if b < a:
                raise DataError(f"window '{a}:{b}' of {key} ends before it starts")
        return
    least = _SCALAR_KEYS[key].metadata["least"]
    if least is not None and value < least:
        raise DataError(f"{key} must be {'positive' if least else 'nonnegative'}, got {value}")
    if key == "shock.kind" and value not in SHOCK_KINDS:
        raise DataError(f"shock kind must be one of {SHOCK_KINDS}, got {value!r}")


def _apply_key(values: dict, clusters: dict, key: str, raw: str):
    if key.startswith("breaks.cluster."):
        name = key[len("breaks.cluster.") :]
        if not name:
            raise DataError("cluster key needs a name: breaks.cluster.<name>")
        if "," in name or len(name.splitlines()) > 1 or not _utf8(name):  # a CSV cell, a config key
            raise DataError(f"cluster name in {key!r} must be UTF-8 without a comma or line break")
        clusters[name] = _windows(raw)
        _check(key, clusters[name])
        return
    if key not in _SCALAR_KEYS:
        raise DataError(f"unknown configuration key {key!r}")
    setting = _SCALAR_KEYS[key]
    try:
        value = setting.metadata["parse"](raw)
    except (KeyError, DataError):  # KeyError: a word that is not in _BOOLS
        if setting.metadata["parse"] == MonthIndex.parse:  # its error says what a month is
            raise
        raise DataError(f"cannot parse value {raw!r} for key {key!r}") from None
    _check(key, value)  # here, not only in RunConfig, so a config file's error names the line
    values[setting.name] = value


def parse_config(path: Path | str) -> RunConfig:
    """The config a file sets; an error names the file as given, and the line if one caused it."""
    if not Path(path).exists():
        raise DataError(f"config file not found: {path}")
    values: dict = {}
    clusters: dict = {}
    set_on: dict[str, int] = {}  # key: the line that set it
    for lineno, raw in enumerate(read_utf8(Path(path)).splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = map(str.strip, line.partition("="))
        with context(f"{path}:{lineno}: "):
            if not sep:
                raise DataError("expected 'key = value'")
            if key in set_on:
                raise DataError(f"{key} is set on line {set_on[key]} already")
            set_on[key] = lineno
            _apply_key(values, clusters, key, _INLINE_COMMENT.split(value, maxsplit=1)[0].strip())
    with context(f"{path}: "):  # the threshold or tanh window order: a pair of keys, not one line
        return RunConfig(clusters=clusters, **values)  # no cluster keys: the default clusters


def apply_overrides(cfg: RunConfig, overrides: list[str]) -> RunConfig:
    """Apply repeated 'key=value' strings on top of a parsed config."""
    values: dict = {}
    clusters = dict(cfg.clusters)
    for text in overrides:
        key, sep, value = text.partition("=")
        if not sep:
            raise DataError(f"override {text!r} must look like key=value")
        _apply_key(values, clusters, key.strip(), value.strip())
    return replace(cfg, clusters=clusters, **values)


def config_text(cfg: RunConfig) -> str:
    """Serialize to the flat key format (used by the synth command); parses back unchanged.

    A value that would not read back as written (surrounding whitespace, a
    line break, whitespace followed by '#', or text that UTF-8 cannot encode)
    raises DataError naming its key.
    """
    pairs = [(key, key_text(cfg, key)) for key in _SCALAR_KEYS]
    for name, windows in cfg.clusters.items():
        pairs.append((f"breaks.cluster.{name}", ",".join(f"{a}:{b}" for a, b in windows)))
    for key, value in pairs:
        stray = value != value.strip() or len(value.splitlines()) > 1 or not _utf8(key + value)
        if stray or _INLINE_COMMENT.search(value):
            raise DataError(f"{key} = {value!r} would not read back from a config file unchanged")
    return "".join(f"{key} = {value}\n" for key, value in pairs)
