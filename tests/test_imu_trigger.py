import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfsense.imu_trigger import (
    EventKind,
    ImuSample,
    Mode,
    StreamOrderError,
    TriggerConfig,
    TriggerEvent,
    demo_trace,
    format_event_line,
    ingest,
    is_sub_threshold,
    parse_trace_line,
    read_trace,
    reset,
    run_stream,
)

CFG = TriggerConfig()


def brute_force_scan(samples, cfg):
    """Offline oracle: full-trace pass applying the sub-threshold
    predicate directly, no incremental state machine."""
    quiet = [
        all(abs(v) < t for v, t in zip(s.la, cfg.la_thresh))
        and all(abs(v) < t for v, t in zip(s.aa, cfg.aa_thresh))
        for s in samples
    ]
    events = []
    run = 0
    stationary = False
    since = None
    backgrounded = False
    for s, q in zip(samples, quiet):
        if not stationary:
            run = run + 1 if q else 0
            if run >= cfg.debounce_n:
                events.append((s.t, "capture"))
                stationary = True
                since = s.t
                backgrounded = False
                run = 0
        else:
            if not q:
                if backgrounded:
                    events.append((s.t, "foreground_resume"))
                stationary = False
                backgrounded = False
                run = 0
            elif not backgrounded and s.t - since >= cfg.tt:
                events.append((s.t, "background_enter"))
                backgrounded = True
    return events


RANDOM_LO = np.array([-2.0, -2.0, -2.0, -3.0, -3.0, -3.0])
RANDOM_HI = -RANDOM_LO
QUIET_LO = np.array([-0.039, -0.039, -0.039, -0.019, -0.019, -0.019])
QUIET_HI = -QUIET_LO


def random_trace(seed, n=400, rate_hz=50.0):
    """Alternating burst and quiet segments of 5-59 samples each.

    Each segment's samples are drawn as one ``(k, 6)`` block (la in
    columns 0-2, aa in 3-5); the samples equal those of the scalar
    reference :func:`random_trace_scalar`.
    """
    rng = np.random.default_rng(seed)
    samples = []
    t = 0.0
    while len(samples) < n:
        burst = rng.random() < 0.5
        span = int(rng.integers(5, 60))
        lo, hi = (RANDOM_LO, RANDOM_HI) if burst else (QUIET_LO, QUIET_HI)
        k = min(span, n - len(samples))
        for v in (lo + (hi - lo) * rng.random((k, 6))).tolist():
            samples.append(ImuSample(t=t, la=(v[0], v[1], v[2]), aa=(v[3], v[4], v[5])))
            t += 1.0 / rate_hz
    return samples


def random_trace_scalar(seed, n=400, rate_hz=50.0):
    """Reference for :func:`random_trace`: one scalar draw per value."""
    rng = np.random.default_rng(seed)
    samples = []
    t = 0.0
    i = 0
    while i < n:
        burst = rng.random() < 0.5
        span = int(rng.integers(5, 60))
        for _ in range(min(span, n - i)):
            if burst:
                la = tuple(rng.uniform(-2, 2) for _ in range(3))
                aa = tuple(rng.uniform(-3, 3) for _ in range(3))
            else:
                la = tuple(rng.uniform(-0.039, 0.039) for _ in range(3))
                aa = tuple(rng.uniform(-0.019, 0.019) for _ in range(3))
            samples.append(ImuSample(t=t, la=la, aa=aa))
            t += 1.0 / rate_hz
            i += 1
    return samples


def demo_trace_scalar(rate_hz=50.0, n_placements=5, duration_s=600.0, seed=7):
    """Reference for :func:`demo_trace`: one scalar draw per value."""
    rng = np.random.default_rng(seed)
    dt = 1.0 / rate_hz
    n = int(round(duration_s * rate_hz))
    segment = n // n_placements
    burst_len = max(int(2.0 * rate_hz), 1)

    samples = []
    for i in range(n):
        t = i * dt
        in_burst = (i % segment) < burst_len and (i // segment) < n_placements
        if in_burst:
            la = tuple(rng.uniform(0.5, 3.0) * rng.choice((-1.0, 1.0)) for _ in range(3))
            aa = tuple(rng.uniform(0.5, 5.0) * rng.choice((-1.0, 1.0)) for _ in range(3))
        else:
            la = tuple(rng.uniform(-0.02, 0.02) for _ in range(3))
            aa = tuple(rng.uniform(-0.01, 0.01) for _ in range(3))
        samples.append(ImuSample(t=t, la=la, aa=aa))
    return samples


def events_of(samples, cfg=CFG):
    return [(e.t, e.kind.value) for e in run_stream(samples, cfg)]


def folded_events(samples, cfg=CFG):
    """Events of folding the single-step ``ingest`` from ``reset()``."""
    state = reset()
    events = []
    for s in samples:
        state, ev = ingest(s, state, cfg)
        if ev is not None:
            events.append((ev.t, ev.kind.value))
    return events


def test_sub_threshold_paper_values():
    s = ImuSample(t=0.0, la=(0.01, 0.02, 0.03), aa=(0.01, 0.005, 0.0))
    assert is_sub_threshold(s, CFG)


def test_sub_threshold_zero_motion():
    s = ImuSample(t=0.0, la=(0.0, 0.0, 0.0), aa=(0.0, 0.0, 0.0))
    assert is_sub_threshold(s, CFG)


def test_threshold_is_strict():
    s = ImuSample(t=0.0, la=(0.04, 0.0, 0.0), aa=(0.0, 0.0, 0.0))
    assert not is_sub_threshold(s, CFG)


def test_reset_state():
    state = reset()
    assert state.mode.value == "S2"
    assert not state.backgrounded


def test_capture_after_debounce_from_reset():
    samples = [
        ImuSample(t=i * 0.02, la=(0, 0, 0), aa=(0, 0, 0)) for i in range(CFG.debounce_n)
    ]
    evs = events_of(samples)
    assert evs == [(samples[-1].t, "capture")]


def test_no_event_under_continuous_motion():
    samples = [
        ImuSample(t=i * 0.02, la=(1.0, 0, 0), aa=(0, 0, 0)) for i in range(10_000)
    ]
    assert events_of(samples) == []


def test_one_capture_per_stationary_episode():
    # rest long past debounce: still exactly one capture
    samples = [ImuSample(t=i * 0.02, la=(0, 0, 0), aa=(0, 0, 0)) for i in range(500)]
    evs = events_of(samples)
    assert [k for _, k in evs].count("capture") == 1


def test_background_and_resume():
    cfg = TriggerConfig(tt=1.0, debounce_n=3)
    quiet = [ImuSample(t=i * 0.1, la=(0, 0, 0), aa=(0, 0, 0)) for i in range(15)]
    moving = [ImuSample(t=1.5 + i * 0.1, la=(1, 1, 1), aa=(1, 1, 1)) for i in range(3)]
    evs = events_of(quiet + moving, cfg)
    kinds = [k for _, k in evs]
    assert kinds == ["capture", "background_enter", "foreground_resume"]
    # capture at debounce completion (sample index 2), background once
    # stationary for >= tt
    assert evs[0][0] == pytest.approx(0.2)
    assert evs[1][0] == pytest.approx(1.2)
    assert evs[2][0] == pytest.approx(1.5)


def test_background_fires_once_per_episode():
    cfg = TriggerConfig(tt=0.5, debounce_n=2)
    samples = [ImuSample(t=i * 0.1, la=(0, 0, 0), aa=(0, 0, 0)) for i in range(40)]
    kinds = [k for _, k in events_of(samples, cfg)]
    assert kinds.count("background_enter") == 1


def test_non_monotonic_timestamp_rejected():
    state = reset()
    state, _ = ingest(ImuSample(t=1.0, la=(0, 0, 0), aa=(0, 0, 0)), state, CFG)
    with pytest.raises(StreamOrderError):
        ingest(ImuSample(t=1.0, la=(0, 0, 0), aa=(0, 0, 0)), state, CFG)


def test_non_finite_sample_rejected():
    with pytest.raises(ValueError):
        ingest(ImuSample(t=0.0, la=(float("nan"), 0, 0), aa=(0, 0, 0)), reset(), CFG)


def test_demo_trace_five_captures():
    evs = events_of(demo_trace())
    assert [k for _, k in evs].count("capture") == 5


def test_demo_trace_matches_oracle():
    samples = demo_trace()
    assert events_of(samples) == brute_force_scan(samples, CFG)


def test_streaming_equals_oracle_on_random_traces():
    for seed in range(100):
        samples = random_trace(seed)
        assert events_of(samples) == brute_force_scan(samples, CFG), f"seed {seed}"


def test_determinism_same_trace_same_events():
    samples = random_trace(123)
    assert events_of(samples) == events_of(samples)


def test_at_most_one_capture_between_moving_episodes():
    for seed in range(30):
        samples = random_trace(seed, n=600)
        captures_since_motion = 0
        state = reset()
        for s in samples:
            prev_mode = state.mode
            state, ev = ingest(s, state, CFG)
            if prev_mode.value == "S1" and state.mode.value == "S2":
                captures_since_motion = 0
            if ev is not None and ev.kind is EventKind.CAPTURE:
                captures_since_motion += 1
                assert captures_since_motion <= 1


def format_trace_line(sample):
    """One trace line in the layout ``parse_trace_line`` reads: t, then la, then aa."""
    return " ".join(f"{v:.6f}" for v in (sample.t, *sample.la, *sample.aa))


def test_trace_roundtrip():
    samples = random_trace(5, n=50)
    text = "\n".join(format_trace_line(s) for s in samples)
    parsed = list(read_trace(io.StringIO(text)))
    assert len(parsed) == len(samples)
    for a, b in zip(parsed, samples):
        assert a.t == pytest.approx(b.t, abs=1e-6)
        assert a.la == pytest.approx(b.la, abs=1e-6)


def test_event_line_format():
    line = format_event_line(TriggerEvent(1.25, EventKind.CAPTURE))
    assert line == "1.250000 capture"


def test_parse_trace_line_rejects_short_lines():
    with pytest.raises(ValueError):
        parse_trace_line("1.0 2.0 3.0")


# -- row-drawn traces equal their scalar references ---------------------------


@pytest.mark.parametrize(
    "kwargs", [dict(n=250), dict(n=400), dict(n=600), dict(n=1, rate_hz=10.0), dict(n=333, rate_hz=100.0)]
)
def test_random_trace_equals_scalar_reference(kwargs):
    for seed in range(40):
        assert random_trace(seed, **kwargs) == random_trace_scalar(seed, **kwargs), f"seed {seed}"


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(),
        dict(seed=3),
        dict(rate_hz=100.0, n_placements=3, duration_s=200.0),
        dict(rate_hz=10.0, n_placements=4, duration_s=61.3, seed=11),  # tail after the last segment
        dict(n_placements=5, duration_s=5.0, seed=2),  # bursts longer than a segment
    ],
)
def test_demo_trace_equals_scalar_reference(kwargs):
    assert demo_trace(**kwargs) == demo_trace_scalar(**kwargs)


def test_demo_trace_rejects_more_placements_than_samples():
    with pytest.raises(ValueError):
        demo_trace(rate_hz=1.0, n_placements=5, duration_s=3.0)


# -- run_stream is the fold of ingest ------------------------------------------


@pytest.mark.parametrize("cfg", [CFG, TriggerConfig(tt=0.5, debounce_n=3)])
def test_run_stream_equals_folded_ingest(cfg):
    kinds = set()
    for n in (400, 600):
        for seed in range(60):
            samples = random_trace(seed, n=n)
            events = events_of(samples, cfg)
            assert events == folded_events(samples, cfg), f"n={n} seed={seed}"
            kinds.update(k for _, k in events)
    samples = demo_trace()
    events = events_of(samples, cfg)
    assert events == folded_events(samples, cfg)
    kinds.update(k for _, k in events)
    assert kinds == {k.value for k in EventKind}  # every transition was compared


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("axis", range(6))
def test_run_stream_thresholds_are_strict_per_axis(axis, sign):
    thresh = CFG.la_thresh + CFG.aa_thresh

    def trace(value):
        v = [0.0] * 6
        v[axis] = sign * value
        return [
            ImuSample(t=i * 0.02, la=tuple(v[:3]), aa=tuple(v[3:]))
            for i in range(CFG.debounce_n)
        ]

    at = trace(thresh[axis])
    assert events_of(at) == folded_events(at) == []
    below = trace(np.nextafter(thresh[axis], 0.0))
    assert events_of(below) == folded_events(below) == [(below[-1].t, "capture")]


def test_run_stream_is_lazy():
    def endless():
        i = 0
        while True:
            yield ImuSample(t=i * 0.02, la=(0, 0, 0), aa=(0, 0, 0))
            i += 1

    ev = next(run_stream(endless(), CFG))
    assert (ev.t, ev.kind) == ((CFG.debounce_n - 1) * 0.02, EventKind.CAPTURE)


def _quiet(n, dt=0.02):
    return [ImuSample(t=i * dt, la=(0, 0, 0), aa=(0, 0, 0)) for i in range(n)]


def _stream_until_error(samples, cfg=CFG):
    """Events ``run_stream`` yields before it raises, and the raised error."""
    got = []
    with pytest.raises(ValueError) as err:
        for e in run_stream(samples, cfg):
            got.append((e.t, e.kind.value))
    return got, err.value


@pytest.mark.parametrize("dt_back", [0.0, 0.01, 5.0])
def test_run_stream_rejects_non_advancing_timestamp(dt_back):
    good = _quiet(CFG.debounce_n + 5)
    bad = ImuSample(t=good[-1].t - dt_back, la=(0, 0, 0), aa=(0, 0, 0))
    got, err = _stream_until_error(good + [bad])
    assert type(err) is StreamOrderError
    assert got == folded_events(good) == [(good[CFG.debounce_n - 1].t, "capture")]


@pytest.mark.parametrize("bad_value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("field", ["t", "la", "aa"])
def test_run_stream_rejects_non_finite_sample(field, bad_value):
    good = _quiet(CFG.debounce_n + 5)
    t_next = good[-1].t + 0.02
    bad = {
        "t": ImuSample(t=bad_value, la=(0, 0, 0), aa=(0, 0, 0)),
        "la": ImuSample(t=t_next, la=(0, bad_value, 0), aa=(0, 0, 0)),
        "aa": ImuSample(t=t_next, la=(0, 0, 0), aa=(0, 0, bad_value)),
    }[field]
    got, err = _stream_until_error(good + [bad])
    assert type(err) is ValueError
    assert got == folded_events(good) == [(good[CFG.debounce_n - 1].t, "capture")]
    with pytest.raises(ValueError):
        folded_events(good + [bad])


@pytest.mark.parametrize(
    "la, aa", [((0, 0), (0, 0, 0)), ((0, 0, 0), (0, 0, 0, 0)), ((0, 0, 0, float("nan")), (0, 0, 0))]
)
def test_run_stream_rejects_sample_without_three_axes(la, aa):
    good = _quiet(CFG.debounce_n + 5)
    bad = ImuSample(t=good[-1].t + 0.02, la=la, aa=aa)
    got, err = _stream_until_error(good + [bad])
    assert "three la and three aa" in str(err)
    assert got == folded_events(good) == [(good[CFG.debounce_n - 1].t, "capture")]
    with pytest.raises(ValueError, match="three la and three aa"):
        folded_events(good + [bad])


def test_trigger_config_needs_three_axes():
    with pytest.raises(ValueError):
        TriggerConfig(la_thresh=(0.04, 0.04))


@pytest.mark.parametrize(
    "key, kwargs",
    [
        ("tt", dict(tt=float("nan"))),
        ("la_thresh", dict(la_thresh=(float("nan"), 0.04, 0.04))),
        ("aa_thresh", dict(aa_thresh=(0.02, 0.02, float("nan")))),
        ("la_thresh", dict(la_thresh=(0.04, 0.0, 0.04))),
        ("tt", dict(tt=-1.0)),
    ],
)
def test_trigger_config_rejects_nan_and_non_positive_values(key, kwargs):
    with pytest.raises(ValueError, match=f"^{key} must be positive"):
        TriggerConfig(**kwargs)


# -- the state is a value ------------------------------------------------------


def test_placement_state_fields_cannot_be_assigned():
    state = reset()
    with pytest.raises(AttributeError):
        state.mode = Mode.S1_STATIONARY
    with pytest.raises(AttributeError):
        state.run_length = 3
    assert state == reset()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 200),
    tt=st.floats(0.05, 2.0),
    debounce_n=st.integers(1, 15),
)
def test_ingest_fold_restarts_from_any_saved_state(seed, n, tt, debounce_n):
    """Folding ``ingest`` matches the offline scan, and every state it
    passed through, saved and folded again later, gives the same rest."""
    cfg = TriggerConfig(tt=tt, debounce_n=debounce_n)
    samples = random_trace(seed, n=n)

    def fold(state, rest):
        states, events = [state], []
        for s in rest:
            state, ev = ingest(s, state, cfg)
            states.append(state)
            events.append(ev)
        return states, events

    states, events = fold(reset(), samples)
    assert [(e.t, e.kind.value) for e in events if e] == brute_force_scan(samples, cfg)
    for i in range(len(samples) + 1):
        assert fold(states[i], samples[i:]) == (states[i:], events[i:]), f"restart at {i}"
