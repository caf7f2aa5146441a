"""Span recording around public library functions, from outside the package.

A wrapper is installed by rebinding a public name in every ``surfsense``
module namespace that holds the same function object (``augment_batch``
lives in ``imaging``, ``classifier`` and ``replay``), so calls made from
inside the library are seen too.  :class:`Patches` remembers every
rebinding and puts the original objects back.

Spans are kept in memory as ``[name, start, end, parent, op, items]``
rows; ``op`` is the capture or step the span belongs to, assigned after
the run from the op intervals, and ``items`` is an optional work count.
"""

from __future__ import annotations

import bisect
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

NAME, START, END, PARENT, OP, ITEMS = range(6)


def library_modules() -> list:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "surfsense" or name.startswith("surfsense."))
    ]


class Patches:
    """Rebinds names to wrappers and restores the originals."""

    def __init__(self) -> None:
        self.saved: List[Tuple[object, str, object]] = []

    def rebind(self, owner, attr: str, make_wrapper: Callable) -> None:
        """Wrap ``owner.attr``; for a module, also every module alias of it.

        ``owner`` is a module or a class (for methods such as
        ``Adam.step``).  ``make_wrapper(original)`` builds the wrapper.
        """
        original = owner.__dict__[attr]
        wrapper = make_wrapper(original)
        if isinstance(owner, type):
            holders = [owner]
        else:
            holders = [m for m in library_modules() if m.__dict__.get(attr) is original]
        for holder in holders:
            self.saved.append((holder, attr, original))
            setattr(holder, attr, wrapper)

    def restore(self) -> None:
        while self.saved:
            holder, attr, original = self.saved.pop()
            setattr(holder, attr, original)


class Tracer:
    """In-memory span recorder for one traced phase."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._open: List[int] = []

    def wrap(
        self,
        name: Union[str, Callable[[tuple], str]],
        fn: Callable,
        count: Optional[Callable[[tuple, object], int]] = None,
    ) -> Callable:
        """Wrapper recording one span per call of ``fn``.

        ``name`` may be a function of the call's positional arguments
        (kernels are named by block); ``count(args, result)`` records the
        call's work items.
        """
        spans = self.spans
        open_ = self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [
                name(args) if callable(name) else name,
                0.0,
                0.0,
                open_[-1] if open_ else -1,
                -1,
                1,
            ]
            open_.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                open_.pop()
            if count is not None:
                span[ITEMS] = count(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def assign_ops(self, ops: Sequence[Tuple[float, float]]) -> None:
        """Tag each span with the index of the op interval its start falls in."""
        starts = [a for a, _ in ops]
        for span in self.spans:
            i = bisect.bisect_right(starts, span[START]) - 1
            if i >= 0 and span[START] < ops[i][1]:
                span[OP] = i


@dataclass
class SpanStats:
    calls: int = 0
    items: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    durations: List[float] = field(default_factory=list)


def self_times(spans: Sequence[list]) -> List[float]:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest, so children never overlap.
    """
    out = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            out[span[PARENT]] -= span[END] - span[START]
    return out


def aggregate(spans: Sequence[list]) -> Dict[str, SpanStats]:
    """Per-name call count, work items, busy time and self time."""
    out: Dict[str, SpanStats] = {}
    for span, own in zip(spans, self_times(spans)):
        st = out.setdefault(span[NAME], SpanStats())
        dur = span[END] - span[START]
        st.calls += 1
        st.items += span[ITEMS]
        st.busy_s += dur
        st.self_s += own
        st.durations.append(dur)
    return out


def covered_time_per_op(spans: Sequence[list], ops: Sequence[Tuple[float, float]]) -> List[float]:
    """Time inside each op interval that some span covers.

    Spans of one thread nest, so this is the overlap of the root spans
    with the op, which equals the self times of all spans clipped to the
    op: a ``classifier.train`` span that began before the first step
    still counts its inline work inside each step.
    """
    roots = [(span[START], span[END]) for span in spans if span[PARENT] < 0]
    ends = [end for _, end in roots]
    out = []
    for a, b in ops:
        covered = 0.0
        i = bisect.bisect_right(ends, a)
        while i < len(roots) and roots[i][0] < b:
            covered += min(b, roots[i][1]) - max(a, roots[i][0])
            i += 1
        out.append(covered)
    return out


class StepClock:
    """Timestamps each ``classifier.batch_tensors`` entry: one per training step.

    ``train`` calls ``batch_tensors(records, cfg, (seed, 101, epoch, step))``
    exactly once per step, so the marks delimit steps.
    """

    def __init__(self) -> None:
        self.marks: List[Tuple[int, int, int, int, float]] = []

    def wrap(self, fn: Callable) -> Callable:
        marks = self.marks
        clock = time.perf_counter

        def timed(records, cfg, seed_key):
            marks.append((seed_key[0], seed_key[2], seed_key[3], len(records), clock()))
            return fn(records, cfg, seed_key)

        timed.__wrapped__ = fn
        return timed

    def intervals(self, first: int = 0) -> List[Tuple[float, float]]:
        """(start, next start) of each step from mark ``first`` on.

        An interval that crosses an epoch, task or fold boundary (a
        change of seed or epoch, or a step that is not the next one) is
        dropped.
        """
        out = []
        marks = self.marks
        for a, b in zip(marks[first:], marks[first + 1 :]):
            if a[0] == b[0] and a[1] == b[1] and b[2] == a[2] + 1:
                out.append((a[4], b[4]))
        return out
