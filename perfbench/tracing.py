"""Spans around the public functions of the `monephase` modules.

The tracer wraps each function at the point where its callers look it
up: the module attribute of every `monephase` module that binds it, the
command table of `monephase.cli`, and the `optimize` name through which
`compartment` reaches SciPy. Nothing under `src/` changes. Spans carry a
name, start, end, parent and the set-up or chain stage they ran in; they
stay in memory until the child process writes them out.
"""

from __future__ import annotations

import sys
import time
import types
from pathlib import Path
from statistics import median

# (home module, function, span name)
FUNCTIONS = (
    ("monephase.synth", "generate", "synth.generate"),
    ("monephase.econometrics", "local_projection", "econometrics.local_projection"),
    ("monephase.econometrics", "ols", "econometrics.ols"),
    ("monephase.econometrics", "hac_covariance", "econometrics.hac_covariance"),
    ("monephase.econometrics", "ar_fit", "econometrics.ar_fit"),
    ("monephase.econometrics", "detrended_shock", "econometrics.detrended_shock"),
    ("monephase.econometrics", "breakpoint", "econometrics.breakpoint"),
    ("monephase.phase", "classify", "phase.classify"),
    ("monephase.phase", "fit_tanh", "phase.fit_tanh"),
    ("monephase.compartment", "calibrate", "compartment.calibrate"),
    ("monephase.csvio", "read_csv", "csvio.read_csv"),
    ("monephase.csvio", "write_csv", "csvio.write_csv"),
    ("monephase.ingest", "load_monetary", "ingest.load_monetary"),
    ("monephase.ingest", "load_cpi", "ingest.load_cpi"),
)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.stage = "setup"
        self._stack: list[int] = []
        self._lp_seen: set[str] = set()
        self._errors_seen: dict[int, Exception] = {}  # holds them, so ids stay unique

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished span that was timed outside the tracer."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append(dict(name=name, start=start, end=end, parent=parent, stage=self.stage))

    def wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            span = dict(name=name, start=time.perf_counter(), end=None, stage=tracer.stage)
            span["parent"] = tracer._stack[-1] if tracer._stack else None
            tracer.spans.append(span)
            tracer._stack.append(len(tracer.spans) - 1)
            if name.startswith("pipeline."):
                tracer._lp_seen.clear()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span["end"] = time.perf_counter()
                tracer._note_error(span, exc)
                raise
            finally:
                tracer._stack.pop()
            span["end"] = time.perf_counter()
            tracer._note_result(span, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _note_error(self, span: dict, exc: Exception) -> None:
        from monephase.errors import DataError

        # count an error once, at the innermost econometrics span it leaves
        if (
            span["name"].startswith("econometrics.")
            and isinstance(exc, DataError)
            and id(exc) not in self._errors_seen
        ):
            self._errors_seen[id(exc)] = exc
            span["error"] = type(exc).__name__

    def _note_result(self, span: dict, result) -> None:
        name = span["name"]
        if name == "econometrics.local_projection":
            key = repr(result)
            span["repeat"] = key in self._lp_seen
            self._lp_seen.add(key)
        elif name == "compartment.minimize":
            span["nfev"] = int(result.nfev)
        elif name == "csvio.write_csv":
            span["bytes"] = Path(result).stat().st_size


def install(tracer: Tracer) -> None:
    """Wrap every traced function in the loaded `monephase` modules."""
    import monephase.cli as cli
    import monephase.compartment as compartment

    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "monephase"]
    for home, attr, name in FUNCTIONS:
        original = getattr(sys.modules[home], attr)
        traced = tracer.wrap(name, original)
        for module in modules:
            if getattr(module, attr, None) is original:
                setattr(module, attr, traced)
    for command, fn in cli.COMMANDS.items():
        cli.COMMANDS[command] = tracer.wrap("pipeline." + command.replace("-", "_"), fn)
    scipy_optimize = compartment.optimize
    proxy = types.SimpleNamespace(**vars(scipy_optimize))
    proxy.minimize = tracer.wrap("compartment.minimize", scipy_optimize.minimize)
    compartment.optimize = proxy


COMMAND_METRICS = (
    "transform",
    "breakpoints",
    "fit_phase",
    "irf",
    "calibrate",
    "landau",
    "efficiency",
    "report",
)

# name -> unit, in the order the benchmark reports them
LAYER_UNITS = {
    "cli.import_s": "s",
    "synth.generate_s": "s",
    **{f"pipeline.{c}_s": "s" for c in COMMAND_METRICS},
    "econometrics.lp_tables": "count",
    "econometrics.lp_tables_repeated": "count",
    "econometrics.lp_self_s": "s",
    "econometrics.ols_calls": "count",
    "econometrics.ols_s": "s",
    "econometrics.hac_calls": "count",
    "econometrics.hac_s": "s",
    "econometrics.shock_calls": "count",
    "econometrics.shock_s": "s",
    "econometrics.breakpoint_s": "s",
    "econometrics.errors": "count",
    "phase.classify_calls": "count",
    "phase.fit_tanh_s": "s",
    "compartment.calibrate_self_s": "s",
    "compartment.minimize_calls": "count",
    "compartment.minimize_nfev": "count",
    "compartment.minimize_s": "s",
    "csvio.read_s": "s",
    "csvio.write_s": "s",
    "csvio.bytes_written": "bytes",
    "ingest.load_s": "s",
}


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer figures of one child process.

    `cli.import_s` and `synth.generate_s` come from the set-up stage, all
    others from the chain. Self time is a span's duration minus that of
    its direct children.
    """
    children_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            children_time[span["parent"]] += span["end"] - span["start"]

    def chain(*names):
        return [
            (span, children_time[i])
            for i, span in enumerate(spans)
            if span["stage"] == "chain" and span["name"] in names
        ]

    def setup_time(name):
        return sum(s["end"] - s["start"] for s in spans if s["stage"] == "setup" and s["name"] == name)

    def total(*names):
        return sum(s["end"] - s["start"] for s, _ in chain(*names))

    def self_time(name):
        return sum(s["end"] - s["start"] - c for s, c in chain(name))

    lp = [s for s, _ in chain("econometrics.local_projection") if "repeat" in s]  # returned
    shocks = ("econometrics.ar_fit", "econometrics.detrended_shock")
    econ = [s for s, _ in chain(*(n for _, _, n in FUNCTIONS if n.startswith("econometrics.")))]
    out = {
        "cli.import_s": setup_time("cli.import"),
        "synth.generate_s": setup_time("synth.generate"),
        **{f"pipeline.{c}_s": total(f"pipeline.{c}") for c in COMMAND_METRICS},
        "econometrics.lp_tables": len(lp),
        "econometrics.lp_tables_repeated": sum(bool(s.get("repeat")) for s in lp),
        "econometrics.lp_self_s": self_time("econometrics.local_projection"),
        "econometrics.ols_calls": len(chain("econometrics.ols")),
        "econometrics.ols_s": total("econometrics.ols"),
        "econometrics.hac_calls": len(chain("econometrics.hac_covariance")),
        "econometrics.hac_s": total("econometrics.hac_covariance"),
        "econometrics.shock_calls": len(chain(*shocks)),
        "econometrics.shock_s": total(*shocks),
        "econometrics.breakpoint_s": total("econometrics.breakpoint"),
        "econometrics.errors": sum("error" in s for s in econ),
        "phase.classify_calls": len(chain("phase.classify")),
        "phase.fit_tanh_s": total("phase.fit_tanh"),
        "compartment.calibrate_self_s": self_time("compartment.calibrate"),
        "compartment.minimize_calls": len(chain("compartment.minimize")),
        "compartment.minimize_nfev": sum(s.get("nfev", 0) for s, _ in chain("compartment.minimize")),
        "compartment.minimize_s": total("compartment.minimize"),
        "csvio.read_s": total("csvio.read_csv"),
        "csvio.write_s": total("csvio.write_csv"),
        "csvio.bytes_written": sum(s.get("bytes", 0) for s, _ in chain("csvio.write_csv")),
        "ingest.load_s": total("ingest.load_monetary", "ingest.load_cpi"),
    }
    return out


def median_metrics(per_round: list[dict[str, float]]) -> dict[str, float]:
    return {name: median(m[name] for m in per_round) for name in LAYER_UNITS}
