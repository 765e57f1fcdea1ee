"""Closed-loop runner: runs a workload's verdicts one after another, times
each, checks it against the expectation table and digests its output."""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import expect

# p90 is reported only with at least this many verdicts beyond it.
MIN_BEYOND = 10


@dataclass
class Op:
    """One verdict: a single library or ``cli.main`` call.

    ``run`` makes the call and returns its raw result; ``observe`` turns the
    result into verdict fields and the structured output that is digested;
    ``expected`` is the hand-written expectation. ``state`` is shared by the
    ops of one orbit (a solve keeps its certificate there for the audit
    after it) and cleared at the start of every pass. The fields may carry a
    ``_defect`` naming a known program defect the result shows; the verdict
    still has to match the expectation.
    """

    label: str
    run: Callable[[], Any]
    observe: Callable[[Any], tuple]
    expected: dict
    samples: int = 0
    solve: bool = False
    state: dict = field(default_factory=dict)


@dataclass
class Outcome:
    label: str
    seconds: float
    samples: int
    iterations: int
    solve: bool
    problems: list
    defect: str = ""
    output_bytes: int = 0


@dataclass
class PassResult:
    wall_s: float
    outcomes: list
    digest: str


def percentile(values: list, q: float) -> float:
    """Nearest-rank q-quantile; refuses a tail with fewer than MIN_BEYOND samples."""
    n = len(values)
    if n == 0:
        raise ValueError("no samples")
    beyond = n - math.ceil(q * n)
    if q > 0.5 and beyond < MIN_BEYOND:
        raise ValueError(
            f"p{round(q * 100)} needs {MIN_BEYOND} samples beyond it; {n} samples leave {beyond}"
        )
    return sorted(values)[max(0, math.ceil(q * n) - 1)]


def median(values: list) -> float:
    s = sorted(values)
    n = len(s)
    return s[n // 2] if n % 2 else 0.5 * (s[n // 2 - 1] + s[n // 2])


def canonical(payload) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), default=float).encode()


def run_pass(ops: list, on_verdict: Callable[[int], None] | None = None) -> PassResult:
    """Run every op in order, each after the previous returns; check afterwards.

    Checking and digesting happen after the last verdict so that wall_s
    covers the verdicts and the loop between them only.
    """
    for op in ops:
        op.state.clear()
    raws, times = [], []
    clock = time.perf_counter
    start = clock()
    for i, op in enumerate(ops):
        if on_verdict is not None:
            on_verdict(i)
        t0 = clock()
        try:
            raw = op.run()
        except Exception as exc:  # an unexpected raise is a failed verdict
            raw = _Raised(exc)
        times.append(clock() - t0)
        raws.append(raw)
    wall = clock() - start
    if on_verdict is not None:
        on_verdict(-1)

    digest = hashlib.sha256()
    outcomes = []
    for op, raw, seconds in zip(ops, raws, times):
        iterations = 0
        defect = ""
        output = None
        if isinstance(raw, _Raised):
            problems = [f"raised {raw.exc!r}"]
        else:
            try:
                fields, output = op.observe(raw)
            except Exception as exc:
                fields, output = None, None
                problems = [f"unreadable result: {exc!r}"]
            if fields is not None:
                defect = fields.pop("_defect", "")
                problems = expect.check(op.expected, fields)
                iterations = int(fields.get("iterations", 0))
                digest.update(output if isinstance(output, bytes) else canonical(output))
        outcomes.append(
            Outcome(op.label, seconds, op.samples, iterations, op.solve, problems,
                    defect, len(output) if isinstance(output, bytes) else 0)
        )
    return PassResult(wall, outcomes, digest.hexdigest())


@dataclass
class _Raised:
    exc: BaseException
