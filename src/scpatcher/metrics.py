"""Batch repair metrics: compilation, effective repair, and overall rates.

Rates are percentages. The effective repair rate divides by the number of
compilable patches, so it is undefined for a batch where nothing compiled;
callers that need it must handle MetricsError. Rendering rounds half-up to
one decimal place.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal

from .model import CodedError, RepairOutcome


class MetricsError(CodedError):
    """Metric undefined for these counts.

    ``code`` is ``NoCompilable``: the effective repair rate has a zero
    denominator because no patch compiled.
    """


def render_rate(value: float) -> str:
    """One-decimal percentage string, rounding halves up (89.55 -> 89.6)."""
    return str(Decimal(repr(value)).quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))


@dataclass(frozen=True)
class MetricsReport:
    n_total: int
    n_comp: int
    n_fixed: int

    def __post_init__(self) -> None:
        if not 0 <= self.n_fixed <= self.n_comp <= self.n_total:
            raise ValueError(
                f"inconsistent counts: fixed {self.n_fixed} <= compiled "
                f"{self.n_comp} <= total {self.n_total} must hold")

    @property
    def n_fail_comp(self) -> int:
        return self.n_total - self.n_comp

    @property
    def n_fail_fixed(self) -> int:
        return self.n_comp - self.n_fixed

    def cpr(self) -> float:
        """Compilation pass rate: compiled / total, in percent."""
        if self.n_total == 0:
            return 0.0
        return self.n_comp / self.n_total * 100.0

    def err(self) -> float:
        """Effective repair rate: fixed / compiled, in percent."""
        if self.n_comp == 0:
            raise MetricsError("NoCompilable",
                               "effective repair rate undefined: no patch compiled")
        return self.n_fixed / self.n_comp * 100.0

    def orr(self) -> float:
        """Overall repair rate: fixed / total, in percent."""
        if self.n_total == 0:
            return 0.0
        return self.n_fixed / self.n_total * 100.0

    def lines(self) -> list[str]:
        """Stable text rendering used by report files."""
        out = [
            f"n_total: {self.n_total}",
            f"n_comp: {self.n_comp}",
            f"n_fail_comp: {self.n_fail_comp}",
            f"n_fixed: {self.n_fixed}",
            f"n_fail_fixed: {self.n_fail_fixed}",
        ]
        if self.n_total == 0:
            out.append("rates: undefined (empty batch)")
            return out
        out.append(f"cpr: {render_rate(self.cpr())}")
        if self.n_comp == 0:
            out.append("err: undefined (no compilable patches)")
        else:
            out.append(f"err: {render_rate(self.err())}")
        out.append(f"orr: {render_rate(self.orr())}")
        return out


def compute_metrics(outcomes: list[RepairOutcome]) -> MetricsReport:
    """Count outcomes into a report. fixed implies compiled upstream."""
    n_total = len(outcomes)
    n_comp = sum(1 for o in outcomes if o.compiled)
    n_fixed = sum(1 for o in outcomes if o.fixed)
    return MetricsReport(n_total=n_total, n_comp=n_comp, n_fixed=n_fixed)
