"""The benchmark's workloads: one synthetic economy and one command chain each.

Every workload starts from `monephase synth` with the benchmark seed, so
the program only ever sees generated inputs. The planted truth below is
the default economy's (`synth.default_spec`), restated here so that the
checks do not take it from the program under test.
"""

from __future__ import annotations

from dataclasses import dataclass

# Planted truth of the default synthetic economy.
TRUTH_T0 = (2013, 4)  # tanh midpoint, calendar month
TRUTH_PHASE_MEANS = {"cash": 0.127, "reserve": 0.694}
TRUTH_PHI_C = 0.231

# Baseline specification: the defaults of RunConfig.
CASH_MAX = 0.30
RESERVE_MIN = 0.60
SHOCK_P = 12
HORIZON = 24
LAGS = 12
HAC_LAG = 12

FULL_CHAIN = (
    "transform",
    "breakpoints",
    "fit-phase",
    "irf",
    "calibrate",
    "landau",
    "efficiency",
    "report",
)
LP_CHAIN = ("transform", "breakpoints", "fit-phase", "irf")
SHORT_CHAIN = LP_CHAIN + ("efficiency",)

# Medium-horizon sign of each (phase, response) IRF as planted.
SIGN_PATTERN = {
    ("cash", "phi"): 1,
    ("reserve", "phi"): 1,
    ("cash", "pi_core"): 1,
    ("reserve", "pi_core"): -1,
}


@dataclass(frozen=True)
class Workload:
    name: str
    months: int
    commands: tuple[str, ...]
    robustness: bool
    # (phase, response) pairs whose medium-horizon sign is checked, and
    # those among them whose baseline sign must match exactly; both were
    # chosen by the margins seen over many seeds at the workload's size
    signs: tuple[tuple[str, str], ...] = tuple(SIGN_PATTERN)
    strict_signs: tuple[tuple[str, str], ...] = ()
    # rounds a run makes at least, each pinned to the next allowed CPU
    min_rounds: int = 1

    def argv(self, config: str) -> list[list[str]]:
        """The chain after set-up, as `monephase` argument lists."""
        out = []
        for command in self.commands:
            argv = [command, "--config", config]
            if command == "irf" and self.robustness:
                argv.append("--robustness")
            out.append(argv)
        return out


WORKLOADS = {
    w.name: w
    for w in (
        # README quick start: 612 months, all nine commands, with the sweep;
        # calibrate dominates, so the compartment layer shows here. Its
        # chain time drifts with the speed of the CPU it runs on, so a run
        # times it twice, once on each of two CPUs.
        Workload(
            "chain-default",
            612,
            FULL_CHAIN,
            robustness=True,
            strict_signs=(("cash", "pi_core"),),
            min_rounds=2,
        ),
        # 2,400 months, LP commands only; econometrics dominates and
        # compartment is not run.
        Workload(
            "lp-long",
            2400,
            LP_CHAIN,
            robustness=True,
            strict_signs=(("cash", "phi"), ("cash", "pi_core")),
        ),
        # 240 months (2006-2025), no sweep and no calibration: 4 LP tables
        # of 50-100 rows, where per-call overhead dominates. At this size
        # the cash-phase phi response is often significantly negative.
        Workload(
            "lp-short",
            240,
            SHORT_CHAIN,
            robustness=False,
            signs=(("cash", "pi_core"), ("reserve", "phi"), ("reserve", "pi_core")),
        ),
    )
}
