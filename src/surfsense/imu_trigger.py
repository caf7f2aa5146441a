"""Placement-trigger state machine over an IMU sample stream.

The phone is "moving" (S2) until the absolute linear-acceleration and
angular-rate values on all three axes have stayed below their thresholds
for ``debounce_n`` consecutive samples, at which point it enters the
stationary state (S1) and a single ``capture`` event fires.  While it
stays in S1 no further captures fire; once the stationary episode
exceeds the time threshold ``tt`` a ``background_enter`` event is
emitted, and the matching ``foreground_resume`` fires on the next
S1 -> S2 transition.

The machine is timestamp-driven and sample-rate agnostic.  State is an
immutable :class:`PlacementState` value: callers own one per stream and
thread it through :func:`ingest`; distinct streams never share state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, NamedTuple, Optional, Tuple


class StreamOrderError(ValueError):
    """Raised when a sample violates the stream contract."""


class Mode(Enum):
    S1_STATIONARY = "S1"
    S2_MOVING = "S2"


class EventKind(Enum):
    CAPTURE = "capture"
    BACKGROUND_ENTER = "background_enter"
    FOREGROUND_RESUME = "foreground_resume"


@dataclass(frozen=True)
class ImuSample:
    """One IMU reading: time (s), linear acceleration (m/s^2), angular rate (deg/s)."""

    t: float
    la: Tuple[float, float, float]
    aa: Tuple[float, float, float]


@dataclass(frozen=True)
class TriggerConfig:
    """Per-axis thresholds, backgrounding time threshold, and S1 debounce length.

    Defaults follow the reference deployment: LA 0.04 m/s^2 and
    AA 0.02 deg/s on every axis, 30 s before backgrounding.  Thresholds
    vary between phone models, so they stay configurable and no
    auto-calibration is attempted.
    """

    la_thresh: Tuple[float, float, float] = (0.04, 0.04, 0.04)
    aa_thresh: Tuple[float, float, float] = (0.02, 0.02, 0.02)
    tt: float = 30.0
    debounce_n: int = 10

    def __post_init__(self) -> None:
        # Each check names its field; `not v > 0` also rejects nan.
        for name in ("la_thresh", "aa_thresh"):
            values = getattr(self, name)
            if len(values) != 3:
                raise ValueError(f"{name} needs one value per axis (3), got {values!r}")
            if not all(v > 0 for v in values):
                raise ValueError(f"{name} must be positive on every axis, got {values!r}")
        if not self.tt > 0:
            raise ValueError(f"tt must be positive, got {self.tt!r}")
        if self.debounce_n < 1:
            raise ValueError(f"debounce_n must be >= 1, got {self.debounce_n!r}")


class PlacementState(NamedTuple):
    """Mode, time the mode was entered, and backgrounding flag.

    An immutable ``NamedTuple`` value: :func:`ingest` returns a new state
    and never changes the one it is given, so any saved state can restart
    a stream.
    ``run_length`` counts consecutive sub-threshold samples while in S2
    (the debounce progress); ``last_t`` enforces timestamp monotonicity.
    """

    mode: Mode = Mode.S2_MOVING
    since: float = -math.inf
    backgrounded: bool = False
    run_length: int = 0
    last_t: float = -math.inf


@dataclass(frozen=True)
class TriggerEvent:
    t: float
    kind: EventKind


def reset() -> PlacementState:
    """Fresh stream state: moving, not backgrounded."""
    return PlacementState()


def _quiet(
    cfg: TriggerConfig, la0: float, la1: float, la2: float, aa0: float, aa1: float, aa2: float
) -> bool:
    """The quiet test of :func:`ingest` and :func:`is_sub_threshold`.

    ``-th < v < th`` is ``|v| < th`` for every v, and false for nan.
    """
    lx, ly, lz = cfg.la_thresh
    ax, ay, az = cfg.aa_thresh
    return (
        -lx < la0 < lx and -ly < la1 < ly and -lz < la2 < lz
        and -ax < aa0 < ax and -ay < aa1 < ay and -az < aa2 < az
    )  # fmt: skip


def is_sub_threshold(sample: ImuSample, cfg: TriggerConfig) -> bool:
    """True iff |la_i| < la_thresh_i and |aa_i| < aa_thresh_i on all axes (strict)."""
    return _quiet(cfg, *sample.la, *sample.aa)


_MOVING, _STATIONARY = Mode.S2_MOVING, Mode.S1_STATIONARY
_finite = math.isfinite


def ingest(
    sample: ImuSample, state: PlacementState, cfg: TriggerConfig
) -> Tuple[PlacementState, Optional[TriggerEvent]]:
    """Advance the state machine by one sample.

    Returns the successor state and at most one event: ``capture`` when
    the debounce run completes an S2 -> S1 transition,
    ``background_enter`` once per stationary episode when its duration
    first reaches ``tt``, ``foreground_resume`` on the S1 -> S2
    transition that ends a backgrounded episode.

    Raises ``ValueError`` on a sample without three la and three aa
    values or with non-finite values, then :class:`StreamOrderError` on
    a timestamp that does not advance.
    """
    t = sample.t
    try:
        (la0, la1, la2), (aa0, aa1, aa2) = sample.la, sample.aa
    except ValueError:
        raise ValueError(f"sample at t={t!r} needs three la and three aa values") from None
    if not (
        _finite(t) and _finite(la0) and _finite(la1) and _finite(la2)
        and _finite(aa0) and _finite(aa1) and _finite(aa2)
    ):  # fmt: skip
        raise ValueError(f"non-finite sample at t={t!r}")
    mode, since, backgrounded, run, last_t = state
    if t <= last_t:
        raise StreamOrderError(f"timestamp {t} does not advance past {last_t}")
    quiet = _quiet(cfg, la0, la1, la2, aa0, aa1, aa2)

    if mode is _MOVING:
        run = run + 1 if quiet else 0
        if run >= cfg.debounce_n:
            return PlacementState(_STATIONARY, t, False, 0, t), TriggerEvent(t, EventKind.CAPTURE)
        return PlacementState(mode, since, backgrounded, run, t), None

    # S1: one super-threshold sample ends the episode.
    if not quiet:
        event = TriggerEvent(t, EventKind.FOREGROUND_RESUME) if backgrounded else None
        return PlacementState(_MOVING, t, False, 0, t), event
    if not backgrounded and t - since >= cfg.tt:
        return PlacementState(mode, since, True, run, t), TriggerEvent(
            t, EventKind.BACKGROUND_ENTER
        )
    return PlacementState(mode, since, backgrounded, run, t), None


def run_stream(
    samples: Iterable[ImuSample], cfg: TriggerConfig
) -> Iterator[TriggerEvent]:
    """Stream a whole trace through a fresh state machine, yielding events.

    Folds :func:`ingest` over ``samples`` from :func:`reset` and yields
    every event it returns; an error of :func:`ingest` is raised after
    the events of the samples before the bad one.  The generator is lazy:
    it reads a sample only when asked for the next event.
    """
    state = reset()
    for sample in samples:
        state, event = ingest(sample, state, cfg)
        if event is not None:
            yield event


# --- trace / event-log text formats ---------------------------------------
#
# Trace: one sample per line, `t la_x la_y la_z aa_x aa_y aa_z`.
# Event log: `t kind` lines.


def parse_trace_line(line: str) -> ImuSample:
    parts = line.split()
    if len(parts) != 7:
        raise ValueError(f"expected 7 fields, got {len(parts)}: {line!r}")
    vals = [float(p) for p in parts]
    return ImuSample(t=vals[0], la=(vals[1], vals[2], vals[3]), aa=(vals[4], vals[5], vals[6]))


def read_trace(fp: Iterable[str]) -> Iterator[ImuSample]:
    for line in fp:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        yield parse_trace_line(line)


def format_event_line(event: TriggerEvent) -> str:
    return f"{event.t:.6f} {event.kind.value}"


def demo_trace(
    rate_hz: float = 50.0,
    n_placements: int = 5,
    duration_s: float = 600.0,
    seed: int = 7,
) -> list[ImuSample]:
    """Scripted trace with ``n_placements`` distinct set-downs over ``duration_s``.

    Each placement is a motion burst followed by a long rest; rests are
    spaced so that every set-down yields exactly one capture under the
    default config.  Deterministic for a given seed.

    Each rest run is drawn as one ``(m, 6)`` block, which consumes the
    same doubles in the same order as one scalar ``rng.uniform`` call per
    value (la before aa, sample by sample); burst samples keep their
    interleaved scalar ``uniform``/``choice`` calls.  The samples are thus
    identical to those of the per-value scalar version, which the tests
    keep as a reference.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    dt = 1.0 / rate_hz
    n = int(round(duration_s * rate_hz))
    segment = n // n_placements
    if n > 0 and segment < 1:
        raise ValueError(f"{n} samples cannot hold n_placements={n_placements} set-downs")
    burst_len = max(int(2.0 * rate_hz), 1)
    rest_lo = np.array([-0.02, -0.02, -0.02, -0.01, -0.01, -0.01])
    rest_span = np.array([0.02, 0.02, 0.02, 0.01, 0.01, 0.01]) - rest_lo

    samples: list[ImuSample] = []

    def rest(start: int, stop: int) -> None:
        rows = (rest_lo + rest_span * rng.random((stop - start, 6))).tolist()
        for i, v in enumerate(rows, start):
            samples.append(ImuSample(t=i * dt, la=(v[0], v[1], v[2]), aa=(v[3], v[4], v[5])))

    for k in range(n_placements):
        start = k * segment
        burst_end = start + min(burst_len, segment)
        for i in range(start, burst_end):
            la = tuple(rng.uniform(0.5, 3.0) * rng.choice((-1.0, 1.0)) for _ in range(3))
            aa = tuple(rng.uniform(0.5, 5.0) * rng.choice((-1.0, 1.0)) for _ in range(3))
            samples.append(ImuSample(t=i * dt, la=la, aa=aa))  # type: ignore[arg-type]
        rest(burst_end, start + segment)
    rest(n_placements * segment, n)
    return samples
