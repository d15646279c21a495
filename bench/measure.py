"""Pure bookkeeping for the benchmark: op outcomes, order statistics and the
end-to-end summary.  Nothing here imports numpy or the library, so the logic
can be tested on synthetic numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

# Outcome of one op.  "failed" means no verified answer (the call raised, or a
# check the program reports itself did not pass); "wrong" means an answer
# that contradicts a known answer or an independent re-check.  Both count as
# failed ops; only "wrong" makes the run incorrect.
OK = "ok"
FAILED = "failed"
WRONG = "wrong"
OUTCOMES = (OK, FAILED, WRONG)

# An op list is long enough when this many latency samples lie beyond p90.
TAIL_SAMPLES = 10


def classify(raised: BaseException | None, verdict: str | None) -> str:
    """Outcome of an op from the exception it raised, or its check's verdict."""
    if raised is not None:
        return FAILED
    if verdict not in OUTCOMES:
        raise ValueError(f"unknown check verdict {verdict!r}")
    return verdict


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default), q in [0, 100]."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def tail_count(values, q: float = 90.0) -> int:
    """Number of samples strictly above the q-th percentile."""
    cut = percentile(values, q)
    return sum(1 for v in values if v > cut)


def enough_samples(values) -> bool:
    """The sample-count rule: at least TAIL_SAMPLES samples beyond p90."""
    return len(values) > 0 and tail_count(values) >= TAIL_SAMPLES


def fastest(rounds) -> list[float]:
    """Each op's fastest latency over rounds of the same op list."""
    return [min(times) for times in zip(*rounds, strict=True)]


def kind_medians_ms(names, latencies) -> dict[str, float]:
    """Median latency in ms by op kind: the op name without its seed."""
    by_kind: dict[str, list[float]] = {}
    for name, seconds in zip(names, latencies, strict=True):
        by_kind.setdefault(name.split(" seed=")[0], []).append(seconds)
    return {kind: round(median(xs) * 1e3, 3) for kind, xs in sorted(by_kind.items())}


@dataclass
class RunLog:
    """Outcomes of every op executed in a run."""

    outcomes: dict[str, int] = field(default_factory=lambda: dict.fromkeys(OUTCOMES, 0))
    failures: dict[str, str] = field(default_factory=dict)

    def record(self, name: str, outcome: str, reason: str = "") -> None:
        self.outcomes[outcome] += 1
        if outcome != OK and name not in self.failures:
            self.failures[name] = f"{outcome}: {reason}"[:160]

    @property
    def attempted(self) -> int:
        return sum(self.outcomes.values())

    @property
    def failed(self) -> int:
        return self.outcomes[FAILED] + self.outcomes[WRONG]

    @property
    def correct(self) -> bool:
        return self.outcomes[WRONG] == 0

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
