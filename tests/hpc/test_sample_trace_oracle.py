"""Vectorized ``sample_trace`` against the per-window register-file oracle.

The oracle is the original window-by-window sampler: reset the enabled
registers, feed the window through ``observe_window`` (round, saturate,
validate per register), then ``read()``.  The vectorized kernel must
return byte-equal readings, raise the same exception (with the same
``windows_read`` for a read glitch) and leave every register in the
same state.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.hpc.counters import (
    COUNTER_BITS,
    CounterRegisterFile,
    CounterStateError,
    sample_trace,
)
from repro.hpc.events import ALL_EVENTS
from repro.hpc.faults import CounterReadGlitchError, GlitchyCounterRegisterFile

MAX = (1 << COUNTER_BITS) - 1


def sample_trace_oracle(register_file, trace, event_names):
    """Per-window reference sampler (the pre-vectorization kernel)."""
    programmed = register_file.programmed_events
    if not programmed:
        raise CounterStateError("no events programmed")
    column = {name: i for i, name in enumerate(event_names)}
    readings = np.zeros((trace.shape[0], len(programmed)))
    for w in range(trace.shape[0]):
        window_counts = {ev: float(trace[w, column[ev]]) for ev in programmed}
        for register in register_file.registers:
            if register.enabled:
                register.value = 0
        register_file.observe_window(window_counts)
        row = register_file.read()
        readings[w] = [row[ev] for ev in programmed]
    return readings


def _register_state(register_file):
    state = [
        (r.index, r.event, r.value, r.enabled, r.overflowed)
        for r in register_file.registers
    ]
    return state, getattr(register_file, "reads_completed", None)


def _outcome(sampler, register_file, trace):
    """``(kind, payload)`` of one sampling call, plus the register state."""
    try:
        readings = sampler(register_file, trace, ALL_EVENTS)
    except CounterReadGlitchError as exc:
        result = ("glitch", (str(exc), exc.windows_read))
    except (ValueError, OverflowError) as exc:
        result = (type(exc).__name__, str(exc))
    else:
        result = ("ok", (readings.shape, readings.dtype.str, readings.tobytes()))
    return result, _register_state(register_file)


def _make(n_counters, events, glitch_read):
    if glitch_read is None:
        register_file = CounterRegisterFile(n_counters)
    else:
        register_file = GlitchyCounterRegisterFile(n_counters, glitch_read=glitch_read)
    register_file.program(events)
    return register_file


def _assert_equivalent(n_counters, events, glitch_read, traces):
    """Run the same trace sequence through both samplers on twin files."""
    fast = _make(n_counters, events, glitch_read)
    slow = _make(n_counters, events, glitch_read)
    for trace in traces:
        assert _outcome(sample_trace, fast, trace) == _outcome(
            sample_trace_oracle, slow, trace
        )


_COUNTS = st.one_of(
    st.floats(0.0, 1e6, allow_nan=False),
    st.integers(0, 10**6).map(lambda k: k + 0.5),  # banker's-rounding ties
    st.floats(float(MAX) - 4.0, 2.0**50),  # saturation boundary and beyond
    st.sampled_from(
        [0.0, -0.0, 0.5, 1.5, 2.5, float(MAX) - 0.5, float(MAX) + 0.5, 2.0**48,
         -1.0, -0.25, math.nan, math.inf, -math.inf]
    ),
)


@st.composite
def _cases(draw):
    n_counters = draw(st.integers(1, 8))
    events = draw(
        st.lists(st.sampled_from(ALL_EVENTS), min_size=1, max_size=n_counters, unique=True)
    )
    blocks = draw(
        st.lists(
            st.integers(0, 6).flatmap(
                lambda n: arrays(np.float64, (n, len(events)), elements=_COUNTS)
            ),
            min_size=1,
            max_size=3,
        )
    )
    # unprogrammed events are invisible: NaN there must change nothing
    traces = []
    for block in blocks:
        trace = np.full((block.shape[0], len(ALL_EVENTS)), np.nan)
        trace[:, [ALL_EVENTS.index(e) for e in events]] = block
        traces.append(trace)
    total = sum(t.shape[0] for t in traces)
    glitch_read = draw(st.one_of(st.none(), st.integers(0, total + 1)))
    return n_counters, events, glitch_read, traces


@settings(max_examples=200, deadline=None)
@given(_cases())
def test_vectorized_sampler_matches_oracle(case):
    _assert_equivalent(*case)


@pytest.mark.parametrize("glitch_read", range(9))
def test_glitch_at_every_read_index(glitch_read):
    rng = np.random.default_rng(glitch_read)
    trace = rng.uniform(0, 1e4, size=(8, len(ALL_EVENTS)))
    events = list(ALL_EVENTS[:4])
    _assert_equivalent(4, events, glitch_read, [trace])
    fast = _make(4, events, glitch_read)
    if glitch_read < 8:
        with pytest.raises(CounterReadGlitchError) as info:
            sample_trace(fast, trace, ALL_EVENTS)
        assert info.value.windows_read == glitch_read
    else:
        sample_trace(fast, trace, ALL_EVENTS)
    assert fast.reads_completed == min(glitch_read, 8)


def test_ties_round_half_to_even():
    column = ALL_EVENTS.index("cpu_cycles")
    trace = np.zeros((4, len(ALL_EVENTS)))
    trace[:, column] = [0.5, 1.5, 2.5, 3.5]
    register_file = _make(1, ["cpu_cycles"], None)
    readings = sample_trace(register_file, trace, ALL_EVENTS)
    assert readings[:, 0].tolist() == [0.0, 2.0, 2.0, 4.0]
    _assert_equivalent(1, ["cpu_cycles"], None, [trace])


def test_saturation_sets_sticky_overflow():
    column = ALL_EVENTS.index("cpu_cycles")
    trace = np.zeros((3, len(ALL_EVENTS)))
    trace[:, column] = [2.0**49, 5.0, 7.0]
    register_file = _make(1, ["cpu_cycles"], None)
    readings = sample_trace(register_file, trace, ALL_EVENTS)
    assert readings[:, 0].tolist() == [float(MAX), 5.0, 7.0]
    assert register_file.registers[0].overflowed
    assert register_file.registers[0].value == 7
    _assert_equivalent(1, ["cpu_cycles"], None, [trace])


@pytest.mark.parametrize(
    "bad, error", [(-1.0, ValueError), (math.nan, ValueError), (math.inf, OverflowError)]
)
def test_invalid_counts_raise_like_the_oracle(bad, error):
    trace = np.ones((5, len(ALL_EVENTS)))
    trace[3, ALL_EVENTS.index("instructions")] = bad
    events = ["cpu_cycles", "instructions"]
    with pytest.raises(error):
        sample_trace(_make(2, events, None), trace, ALL_EVENTS)
    _assert_equivalent(2, events, None, [trace])
    _assert_equivalent(2, events, 3, [trace])
    _assert_equivalent(2, events, 2, [trace])


def test_empty_trace_leaves_registers_untouched():
    events = ["cpu_cycles"]
    warm = np.full((2, len(ALL_EVENTS)), 9.0)
    empty = np.zeros((0, len(ALL_EVENTS)))
    register_file = _make(1, events, None)
    sample_trace(register_file, warm, ALL_EVENTS)
    readings = sample_trace(register_file, empty, ALL_EVENTS)
    assert readings.shape == (0, 1)
    assert register_file.registers[0].value == 9
    _assert_equivalent(1, events, None, [warm, empty])
