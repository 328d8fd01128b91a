"""Paper-fidelity scoring: a figure's payload against its record.

Each :class:`~repro.figures.spec.Figure` record carries what the paper
says about it (:mod:`repro.figures.spec`): its ``expectations``, the
numbers the paper reports (paper values live as ``PAPER_EXPECTED``
annotations beside the figure, e.g.
:data:`repro.experiments.overall.PAPER_EXPECTED`), and its ``claims``,
the orderings and directions the paper's results show.
:func:`evaluate` scores one payload against both.

An expectation is classified by relative delta
``(reproduced - paper) / |paper|``:

* ``pass`` -- within ``pass_tol`` of the paper's number;
* ``warn`` -- within ``warn_tol``: the right shape, scaled-down
  magnitude (expected: this reproduction runs a few thousand records
  per thread at 1/512 capacity, not the paper's full traces);
* ``off`` -- beyond ``warn_tol``: investigate before trusting the cell;
* ``n/a`` -- not measurable from this payload (e.g. a smoke run that
  swept a workload subset).

A claim ``holds``, is ``broken`` (with the values that broke it), or
is ``n/a`` when the payload lacks a workload or key it reads.

``off`` rows do not fail CI -- magnitudes are evidence, not a gate --
but CI's full report fails on any ``broken`` claim, and the golden
fidelity suite pins exact numbers per backend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.figures.spec import PASS_TOL, WARN_TOL, Claim, Figure, _norm

#: What a malformed or partial payload raises inside an extractor or a
#: claim: the row is n/a, not a crash.
_UNMEASURABLE = (AttributeError, IndexError, KeyError, TypeError, ValueError,
                 ZeroDivisionError)


@dataclass(frozen=True)
class FidelityRow:
    """One evaluated fidelity-table row."""

    figure: str
    metric: str
    paper: float
    reproduced: Optional[float]
    delta: Optional[float]  # relative; None when not measurable
    status: str  # "pass" | "warn" | "off" | "n/a"
    note: str = ""


@dataclass(frozen=True)
class ClaimRow:
    """One evaluated claim."""

    figure: str
    claim: str
    status: str  # "holds" | "broken" | "n/a"
    #: The values of the comparisons that broke (empty unless broken).
    measured: Dict[str, float] = field(default_factory=dict)


def classify(paper: float, reproduced: Optional[float],
             pass_tol: float = PASS_TOL,
             warn_tol: float = WARN_TOL) -> FidelityRow:
    """Classify a reproduced value against a paper value.

    Returns a partially-filled row (figure/metric blank); the relative
    delta divides by ``max(|paper|, 1e-12)`` so a zero paper value
    cannot divide by zero.
    """
    if reproduced is None or not math.isfinite(reproduced):
        return FidelityRow("", "", paper, None, None, "n/a")
    delta = (reproduced - paper) / max(abs(paper), 1e-12)
    if abs(delta) <= pass_tol:
        status = "pass"
    elif abs(delta) <= warn_tol:
        status = "warn"
    else:
        status = "off"
    return FidelityRow("", "", paper, float(reproduced), delta, status)


def judge(figure: str, claim: Claim, payload: dict) -> ClaimRow:
    """``claim`` over one JSON-normalized payload."""
    try:
        checks = list(claim.test(payload))
    except _UNMEASURABLE:
        checks = []
    if not checks:
        return ClaimRow(figure, claim.text, "n/a")
    broken = [values for held, values in checks if not held]
    if not broken:
        return ClaimRow(figure, claim.text, "holds")
    return ClaimRow(figure, claim.text, "broken",
                    {k: v for values in broken for k, v in values.items()})


def evaluate(record: Figure,
             data: object) -> Tuple[List[FidelityRow], List[ClaimRow]]:
    """The fidelity rows of ``record``'s expectations and the rows of
    its claims, over one payload of that figure."""
    payload = _norm(data)
    rows: List[FidelityRow] = []
    for exp in record.expectations:
        try:
            reproduced = exp.extract(payload)
        except _UNMEASURABLE:
            reproduced = None
        scored = classify(exp.paper, reproduced, exp.pass_tol, exp.warn_tol)
        rows.append(FidelityRow(
            figure=record.name,
            metric=exp.metric,
            paper=exp.paper,
            reproduced=scored.reproduced,
            delta=scored.delta,
            status=scored.status,
            note=exp.note,
        ))
    return rows, [judge(record.name, claim, payload)
                  for claim in record.claims]
