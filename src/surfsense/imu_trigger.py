"""Placement-trigger state machine over an IMU sample stream.

The phone is "moving" (S2) until the absolute linear-acceleration and
angular-rate values on all three axes have stayed below their thresholds
for ``debounce_n`` consecutive samples, at which point it enters the
stationary state (S1) and a single ``capture`` event fires.  While it
stays in S1 no further captures fire; once the stationary episode
exceeds the time threshold ``tt`` a ``background_enter`` event is
emitted, and the matching ``foreground_resume`` fires on the next
S1 -> S2 transition.

The machine is timestamp-driven and sample-rate agnostic.  State is
plain data: callers own one state value per stream and thread it through
:func:`ingest`; distinct streams never share state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Iterator, Optional, TextIO, Tuple


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
        if len(self.la_thresh) != 3 or len(self.aa_thresh) != 3:
            raise ValueError("thresholds need one value per axis (3 each)")
        if any(v <= 0 for v in self.la_thresh) or any(v <= 0 for v in self.aa_thresh):
            raise ValueError("thresholds must be positive")
        if self.tt <= 0:
            raise ValueError("tt must be positive")
        if self.debounce_n < 1:
            raise ValueError("debounce_n must be >= 1")


@dataclass(frozen=True)
class PlacementState:
    """Mode, time the mode was entered, and backgrounding flag.

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


def is_sub_threshold(sample: ImuSample, cfg: TriggerConfig) -> bool:
    """True iff |la_i| < la_thresh_i and |aa_i| < aa_thresh_i on all axes (strict)."""
    return all(abs(v) < th for v, th in zip(sample.la, cfg.la_thresh)) and all(
        abs(v) < th for v, th in zip(sample.aa, cfg.aa_thresh)
    )


def _sample_values(sample: ImuSample) -> Tuple[float, ...]:
    """``(t, la_x, la_y, la_z, aa_x, aa_y, aa_z)`` of a well-formed sample.

    Raises ``ValueError`` when ``la`` or ``aa`` does not hold three values
    or when any value is non-finite.
    """
    try:
        (la0, la1, la2), (aa0, aa1, aa2) = sample.la, sample.aa
    except ValueError:
        raise ValueError(
            f"sample at t={sample.t!r} needs three la and three aa values"
        ) from None
    values = (sample.t, la0, la1, la2, aa0, aa1, aa2)
    if not all(map(math.isfinite, values)):
        raise ValueError(f"non-finite sample at t={sample.t!r}")
    return values


def ingest(
    sample: ImuSample, state: PlacementState, cfg: TriggerConfig
) -> Tuple[PlacementState, Optional[TriggerEvent]]:
    """Advance the state machine by one sample.

    Returns the successor state and at most one event: ``capture`` when
    the debounce run completes an S2 -> S1 transition,
    ``background_enter`` once per stationary episode when its duration
    first reaches ``tt``, ``foreground_resume`` on the S1 -> S2
    transition that ends a backgrounded episode.

    Raises :class:`StreamOrderError` on a non-monotonic timestamp and
    ``ValueError`` on a sample without three la and three aa values or
    with non-finite values.
    """
    _sample_values(sample)
    if sample.t <= state.last_t:
        raise StreamOrderError(
            f"timestamp {sample.t} does not advance past {state.last_t}"
        )

    quiet = is_sub_threshold(sample, cfg)

    if state.mode is Mode.S2_MOVING:
        run = state.run_length + 1 if quiet else 0
        if run >= cfg.debounce_n:
            new = PlacementState(
                mode=Mode.S1_STATIONARY,
                since=sample.t,
                backgrounded=False,
                run_length=0,
                last_t=sample.t,
            )
            return new, TriggerEvent(sample.t, EventKind.CAPTURE)
        return replace(state, run_length=run, last_t=sample.t), None

    # S1: one super-threshold sample ends the episode.
    if not quiet:
        event = (
            TriggerEvent(sample.t, EventKind.FOREGROUND_RESUME)
            if state.backgrounded
            else None
        )
        new = PlacementState(
            mode=Mode.S2_MOVING,
            since=sample.t,
            backgrounded=False,
            run_length=0,
            last_t=sample.t,
        )
        return new, event

    if not state.backgrounded and sample.t - state.since >= cfg.tt:
        return replace(state, backgrounded=True, last_t=sample.t), TriggerEvent(
            sample.t, EventKind.BACKGROUND_ENTER
        )
    return replace(state, last_t=sample.t), None


def run_stream(
    samples: Iterable[ImuSample], cfg: TriggerConfig
) -> Iterator[TriggerEvent]:
    """Stream a whole trace through a fresh state machine, yielding events.

    Equivalent to folding :func:`ingest` over ``samples`` from
    :func:`reset` and yielding every event it returns: the same events at
    the same times, and the same errors (``ValueError`` on a non-finite
    value or a sample without three values per sensor,
    :class:`StreamOrderError` on a timestamp that does not advance)
    raised after the events of the samples before the bad one.  The state
    lives in plain locals instead of a :class:`PlacementState` per sample.
    The generator is lazy: it reads a sample only when asked for the next
    event.
    """
    lx, ly, lz = cfg.la_thresh
    ax, ay, az = cfg.aa_thresh
    tt, debounce_n = cfg.tt, cfg.debounce_n
    moving = True  # Mode.S2_MOVING
    since = -math.inf
    backgrounded = False
    run = 0
    last_t = -math.inf
    for sample in samples:
        t, la0, la1, la2, aa0, aa1, aa2 = _sample_values(sample)
        if t <= last_t:
            raise StreamOrderError(f"timestamp {t} does not advance past {last_t}")
        last_t = t
        # -th < v < th is |v| < th for finite v (see is_sub_threshold).
        quiet = (
            -lx < la0 < lx and -ly < la1 < ly and -lz < la2 < lz
            and -ax < aa0 < ax and -ay < aa1 < ay and -az < aa2 < az
        )
        if moving:
            run = run + 1 if quiet else 0
            if run >= debounce_n:
                moving, since, backgrounded, run = False, t, False, 0
                yield TriggerEvent(t, EventKind.CAPTURE)
        elif not quiet:
            was_backgrounded = backgrounded
            moving, since, backgrounded, run = True, t, False, 0
            if was_backgrounded:
                yield TriggerEvent(t, EventKind.FOREGROUND_RESUME)
        elif not backgrounded and t - since >= tt:
            backgrounded = True
            yield TriggerEvent(t, EventKind.BACKGROUND_ENTER)


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


def read_trace(fp: TextIO) -> Iterator[ImuSample]:
    for line in fp:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        yield parse_trace_line(line)


def format_trace_line(sample: ImuSample) -> str:
    fields = (sample.t, *sample.la, *sample.aa)
    return " ".join(f"{v:.6f}" for v in fields)


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
