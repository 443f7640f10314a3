"""Microarchitecture model: synthesis shapes, correlations, determinism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hpc.events import ALL_EVENTS
from repro.hpc.microarch import (
    ApplicationBehavior,
    PhaseMix,
    PhaseParameters,
    synthesize_windows,
)

COL = {name: i for i, name in enumerate(ALL_EVENTS)}


def test_synthesize_shape():
    trace = synthesize_windows(PhaseParameters(), 25, np.random.default_rng(0))
    assert trace.shape == (25, 44)


def test_synthesize_zero_windows():
    trace = synthesize_windows(PhaseParameters(), 0, np.random.default_rng(0))
    assert trace.shape == (0, 44)


def test_synthesize_negative_windows_rejected():
    with pytest.raises(ValueError):
        synthesize_windows(PhaseParameters(), -1, np.random.default_rng(0))


def test_counts_non_negative():
    trace = synthesize_windows(PhaseParameters(), 50, np.random.default_rng(1))
    assert np.all(trace >= 0)


def test_counts_finite():
    trace = synthesize_windows(PhaseParameters(), 50, np.random.default_rng(1))
    assert np.all(np.isfinite(trace))


def test_instructions_scale_with_ipc():
    rng = np.random.default_rng(2)
    low = synthesize_windows(PhaseParameters(ipc=0.5), 40, rng)
    rng = np.random.default_rng(2)
    high = synthesize_windows(PhaseParameters(ipc=2.0), 40, rng)
    assert high[:, COL["instructions"]].mean() > 2 * low[:, COL["instructions"]].mean()


def test_llc_loads_downstream_of_l1_misses():
    """LLC demand traffic must be bounded by what misses upstream."""
    trace = synthesize_windows(PhaseParameters(), 200, np.random.default_rng(3))
    upstream = (
        trace[:, COL["L1_dcache_load_misses"]] + trace[:, COL["L1_icache_load_misses"]]
    )
    # correlated within noise: ratio concentrated around 1
    ratio = trace[:, COL["LLC_loads"]] / np.maximum(upstream, 1e-9)
    assert 0.5 < np.median(ratio) < 2.0


def test_branch_misses_below_branches():
    trace = synthesize_windows(PhaseParameters(), 100, np.random.default_rng(4))
    assert np.all(
        trace[:, COL["branch_misses"]] < trace[:, COL["branch_instructions"]]
    )


def test_node_traffic_split_by_locality():
    params = PhaseParameters(node_remote_ratio=0.5)
    trace = synthesize_windows(params, 300, np.random.default_rng(5))
    local = trace[:, COL["node_loads"]].mean()
    remote = trace[:, COL["node_load_misses"]].mean()
    assert 0.5 < local / remote < 2.0


def test_window_length_scales_counts():
    rng = np.random.default_rng(6)
    short = synthesize_windows(PhaseParameters(), 50, rng, window_ms=1.0)
    rng = np.random.default_rng(6)
    long = synthesize_windows(PhaseParameters(), 50, rng, window_ms=100.0)
    assert long[:, COL["cpu_cycles"]].mean() > 50 * short[:, COL["cpu_cycles"]].mean()


def test_perturbed_clips_rates_to_unit_interval():
    params = PhaseParameters(branch_ratio=0.9, llc_miss_rate=0.99)
    rng = np.random.default_rng(7)
    for _ in range(30):
        jittered = params.perturbed(rng, sigma=0.8)
        assert 0 < jittered.branch_ratio <= 1.0
        assert 0 < jittered.llc_miss_rate <= 1.0
        assert 0 < jittered.ipc <= 4.0


def test_perturbed_keeps_noise_sigma():
    params = PhaseParameters(noise_sigma=0.13)
    assert params.perturbed(np.random.default_rng(8)).noise_sigma == 0.13


def test_perturbed_changes_values():
    params = PhaseParameters()
    jittered = params.perturbed(np.random.default_rng(9), sigma=0.3)
    assert jittered.ipc != params.ipc


def test_phase_mix_rejects_nonpositive_weight():
    with pytest.raises(ValueError):
        PhaseMix(PhaseParameters(), 0.0)


def test_application_requires_phases():
    with pytest.raises(ValueError):
        ApplicationBehavior("empty", [])


def test_application_rejects_tiny_dwell():
    with pytest.raises(ValueError):
        ApplicationBehavior("x", [PhaseMix(PhaseParameters(), 1.0)], mean_dwell_windows=0.5)


def test_phase_schedule_dwell_structure():
    app = ApplicationBehavior(
        "two_phase",
        [PhaseMix(PhaseParameters(ipc=0.5), 1.0), PhaseMix(PhaseParameters(ipc=2.0), 1.0)],
        mean_dwell_windows=20.0,
    )
    schedule = app.phase_schedule(200, np.random.default_rng(10))
    switches = int(np.sum(np.diff(schedule) != 0))
    # with mean dwell 20 over 200 windows, expect on the order of 10 switches
    assert switches < 40


def test_execute_shape_and_positivity():
    app = ApplicationBehavior("one", [PhaseMix(PhaseParameters(), 1.0)])
    trace = app.execute(30, np.random.default_rng(11))
    assert trace.shape == (30, 44)
    assert np.all(trace >= 0)


def test_execute_rejects_zero_windows():
    app = ApplicationBehavior("one", [PhaseMix(PhaseParameters(), 1.0)])
    with pytest.raises(ValueError):
        app.execute(0, np.random.default_rng(12))


def test_execute_deterministic_given_rng_seed():
    app = ApplicationBehavior("one", [PhaseMix(PhaseParameters(), 1.0)])
    a = app.execute(10, np.random.default_rng(13))
    b = app.execute(10, np.random.default_rng(13))
    np.testing.assert_allclose(a, b)


def test_execute_varies_across_runs():
    app = ApplicationBehavior("one", [PhaseMix(PhaseParameters(), 1.0)])
    a = app.execute(10, np.random.default_rng(14))
    b = app.execute(10, np.random.default_rng(15))
    assert not np.allclose(a, b)


@settings(max_examples=25, deadline=None)
@given(
    ipc=st.floats(0.1, 3.5),
    branch_ratio=st.floats(0.01, 0.45),
    n=st.integers(1, 30),
)
def test_synthesize_always_valid(ipc, branch_ratio, n):
    """Property: any sane phase parameters yield finite non-negative counts."""
    params = PhaseParameters(ipc=ipc, branch_ratio=branch_ratio)
    trace = synthesize_windows(params, n, np.random.default_rng(0))
    assert trace.shape == (n, 44)
    assert np.all(np.isfinite(trace))
    assert np.all(trace >= 0)


# ------------------------------------------- inputs that gave bad traces
def _one_phase_app(**params):
    return ApplicationBehavior("one", [PhaseMix(PhaseParameters(**params), 1.0)])


@pytest.mark.parametrize("window_ms", [0.0, -10.0, float("nan")])
def test_synthesize_rejects_bad_window(window_ms):
    """0 gave all-zero counts, a negative window negative counts, NaN NaN traces."""
    with pytest.raises(ValueError, match="window_ms"):
        synthesize_windows(PhaseParameters(), 5, np.random.default_rng(0), window_ms=window_ms)


@pytest.mark.parametrize("window_ms", [0.0, -10.0, float("nan")])
def test_execute_rejects_bad_window(window_ms):
    with pytest.raises(ValueError, match="window_ms"):
        _one_phase_app().execute(5, np.random.default_rng(0), window_ms=window_ms)


def test_synthesize_rejects_nan_noise_sigma():
    with pytest.raises(ValueError, match="noise_sigma"):
        synthesize_windows(PhaseParameters(noise_sigma=float("nan")), 5,
                           np.random.default_rng(0))


def test_execute_rejects_nan_noise_sigma():
    with pytest.raises(ValueError, match="noise_sigma"):
        _one_phase_app(noise_sigma=float("nan")).execute(5, np.random.default_rng(0))


def test_execute_rejects_nan_run_sigma():
    with pytest.raises(ValueError, match="sigma"):
        _one_phase_app().execute(5, np.random.default_rng(0), run_sigma=float("nan"))


def test_application_rejects_nan_dwell():
    """A NaN dwell was accepted and the app never switched phase."""
    with pytest.raises(ValueError, match="mean_dwell_windows"):
        ApplicationBehavior("x", [PhaseMix(PhaseParameters(), 1.0)],
                            mean_dwell_windows=float("nan"))


def test_application_rejects_nan_rate():
    with pytest.raises(ValueError, match="NaN"):
        _one_phase_app(ipc=float("nan"))
