"""Convergence-trace records shared by the solvers and the harness."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["TracePoint", "Trace", "config_id_flaw"]


@dataclass(frozen=True)
class TracePoint:
    """One evaluation point, taken after outer loop s (s = 0 is the initial
    iterate, before any work).

    Fields eta_s / m_s / snapshot_index are None at s = 0. gap is None when no
    reference optimum was supplied or evaluation was disabled; grad_sq is None
    only when evaluation was disabled. ifo_total counts optimization work only
    (evaluations are never charged).
    """

    s: int
    eta_s: float | None
    m_s: int | None
    snapshot_index: int | None  # the sampled M^s (steps actually run)
    ifo_total: int
    gap: float | None
    grad_sq: float | None


@dataclass(frozen=True)
class Trace:
    """Per-outer-loop records for one solver run."""

    config_id: str
    n: int  # component count, for sample-pass conversion
    points: tuple[TracePoint, ...]

    def sample_passes(self, point: TracePoint) -> float:
        return point.ifo_total / self.n

    @property
    def final(self) -> TracePoint:
        return self.points[-1]


def config_id_flaw(config_id: str) -> str | None:
    """What keeps config_id from being one cell of a trace CSV row: "a
    comma", "a line break" (any character str.splitlines breaks on), or
    None when nothing does."""
    if "," in config_id:
        return "a comma"
    if "".join(config_id.splitlines()) != config_id:
        return "a line break"
    return None
