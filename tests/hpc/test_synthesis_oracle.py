"""One-pass execution synthesis against the per-phase reference.

The oracle is the original synthesizer: perturb each phase with its own
draw, draw the schedule, then synthesize the windows of every scheduled
phase (ascending index) with one ``rng.normal`` call per noisy event.
The one-pass kernel behind ``ApplicationBehavior.execute`` and
``synthesize_windows`` must return byte-equal C-contiguous ``float64``
traces, leave the generator at the same stream position (checked by the
next ``rng.random()``), and raise where the oracle raises.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hpc.events import ALL_EVENTS
from repro.hpc.lxc import CONTAMINATION_SIGMA_STEP
from repro.hpc.microarch import (
    DEFAULT_FREQUENCY_HZ,
    DEFAULT_WINDOW_MS,
    ApplicationBehavior,
    PhaseMix,
    PhaseParameters,
    synthesize_windows,
)

#: run_sigma of a container after k malicious runs.
RUN_SIGMAS = [0.05 + CONTAMINATION_SIGMA_STEP * k for k in range(5)]
WINDOW_MS = [0.5, 1.0, DEFAULT_WINDOW_MS, 25.0, 100.0]
#: Window noise scales: none, the families' range, and large enough that
#: exp() overflows to inf (and inf * 0 gives NaN downstream).
NOISE_SIGMAS = [0.0, 0.08, 0.3, 1.0, 400.0]


def synthesize_windows_oracle(
    params: PhaseParameters,
    n_windows: int,
    rng: np.random.Generator,
    window_ms: float = DEFAULT_WINDOW_MS,
    frequency_hz: float = DEFAULT_FREQUENCY_HZ,
) -> np.ndarray:
    """Per-phase reference synthesizer: 42 ``rng.normal`` draws, one per
    noisy event, each followed by its own ``np.exp``.

    Args:
        params: latent rates of the phase.
        n_windows: number of consecutive sampling windows to produce.
        rng: random generator for the multiplicative noise.
        window_ms: sampling window length in milliseconds.
        frequency_hz: modelled core frequency.

    Returns:
        Array of shape ``(n_windows, 44)`` with columns ordered like
        :data:`repro.hpc.events.ALL_EVENTS`.  Counts are non-negative
        floats (fractional counts model pro-rated multiplexing).
    """
    if n_windows < 0:
        raise ValueError(f"n_windows must be non-negative, got {n_windows}")
    if n_windows == 0:
        return np.zeros((0, len(ALL_EVENTS)))

    def jitter(shape: tuple[int, ...], scale: float = 1.0) -> np.ndarray:
        return np.exp(rng.normal(0.0, params.noise_sigma * scale, size=shape))

    n = n_windows
    cycles = frequency_hz * (window_ms / 1000.0) * params.utilization * jitter((n,))
    instructions = cycles * params.ipc * jitter((n,))

    branches = instructions * params.branch_ratio * jitter((n,))
    # Misprediction counts are noisy (speculation depth varies window to
    # window); BPU lookups track retired branches almost deterministically.
    branch_misses = branches * params.branch_mispred_rate * jitter((n,), 1.8)
    branch_loads = branches * 1.05 * jitter((n,), 0.25)
    branch_load_misses = branch_loads * params.bpu_miss_rate * jitter((n,))

    loads = instructions * params.load_ratio * jitter((n,))
    stores = instructions * params.store_ratio * jitter((n,))

    l1d_load_misses = loads * params.l1d_load_miss_rate * jitter((n,))
    l1d_store_misses = stores * params.l1d_store_miss_rate * jitter((n,))
    l1d_prefetches = l1d_load_misses * params.prefetch_intensity * jitter((n,), 3.0)
    l1d_prefetch_misses = l1d_prefetches * params.prefetch_miss_rate * jitter((n,), 3.0)

    # The front end fetches roughly one L1I access per issued instruction
    # bundle (4-wide on Nehalem), so fetches scale with instructions.
    l1i_loads = instructions * 0.27 * jitter((n,))
    l1i_load_misses = l1i_loads * params.l1i_miss_rate * jitter((n,))
    l1i_prefetches = l1i_load_misses * 0.5 * jitter((n,), 3.0)
    l1i_prefetch_misses = l1i_prefetches * params.prefetch_miss_rate * jitter((n,), 3.0)

    # LLC demand traffic is downstream of the L1 misses.
    llc_loads = (l1d_load_misses + l1i_load_misses) * jitter((n,))
    llc_load_misses = llc_loads * params.llc_miss_rate * jitter((n,))
    llc_stores = l1d_store_misses * jitter((n,))
    llc_store_misses = llc_stores * params.llc_miss_rate * 0.9 * jitter((n,))
    llc_prefetches = (l1d_prefetch_misses + l1i_prefetch_misses) * jitter((n,), 3.0)
    llc_prefetch_misses = llc_prefetches * params.prefetch_miss_rate * jitter((n,), 3.0)

    cache_references = llc_loads + llc_stores + llc_prefetches
    cache_misses = llc_load_misses + llc_store_misses + llc_prefetch_misses

    dtlb_loads = loads * jitter((n,))
    dtlb_load_misses = dtlb_loads * params.dtlb_load_miss_rate * jitter((n,))
    dtlb_stores = stores * jitter((n,))
    dtlb_store_misses = dtlb_stores * params.dtlb_store_miss_rate * jitter((n,))
    dtlb_prefetches = l1d_prefetches * 0.8 * jitter((n,), 3.0)
    dtlb_prefetch_misses = dtlb_prefetches * params.dtlb_load_miss_rate * jitter((n,), 3.0)

    itlb_loads = l1i_loads * 0.5 * jitter((n,))
    itlb_load_misses = itlb_loads * params.itlb_miss_rate * jitter((n,))

    # Memory-node traffic is what escapes the LLC, split by NUMA locality.
    remote = params.node_remote_ratio
    memory_loads = llc_load_misses + llc_prefetch_misses
    node_loads = memory_loads * (1.0 - remote) * jitter((n,))
    node_load_misses = memory_loads * remote * jitter((n,))
    node_stores = llc_store_misses * (1.0 - remote) * jitter((n,))
    node_store_misses = llc_store_misses * remote * jitter((n,))
    node_prefetches = llc_prefetch_misses * (1.0 - remote) * jitter((n,), 3.0)
    node_prefetch_misses = llc_prefetch_misses * remote * 0.5 * jitter((n,), 3.0)

    mem_loads = memory_loads * jitter((n,))
    mem_stores = llc_store_misses * jitter((n,))

    stalled_frontend = cycles * params.frontend_stall_frac * jitter((n,))
    stalled_backend = cycles * params.backend_stall_frac * jitter((n,))
    ref_cycles = cycles * jitter((n,))
    bus_cycles = cycles / 8.0 * jitter((n,))

    columns = {
        "cpu_cycles": cycles,
        "instructions": instructions,
        "ref_cycles": ref_cycles,
        "bus_cycles": bus_cycles,
        "stalled_cycles_frontend": stalled_frontend,
        "stalled_cycles_backend": stalled_backend,
        "branch_instructions": branches,
        "branch_misses": branch_misses,
        "cache_references": cache_references,
        "cache_misses": cache_misses,
        "L1_dcache_loads": loads,
        "L1_dcache_load_misses": l1d_load_misses,
        "L1_dcache_stores": stores,
        "L1_dcache_store_misses": l1d_store_misses,
        "L1_dcache_prefetches": l1d_prefetches,
        "L1_dcache_prefetch_misses": l1d_prefetch_misses,
        "L1_icache_loads": l1i_loads,
        "L1_icache_load_misses": l1i_load_misses,
        "L1_icache_prefetches": l1i_prefetches,
        "L1_icache_prefetch_misses": l1i_prefetch_misses,
        "LLC_loads": llc_loads,
        "LLC_load_misses": llc_load_misses,
        "LLC_stores": llc_stores,
        "LLC_store_misses": llc_store_misses,
        "LLC_prefetches": llc_prefetches,
        "LLC_prefetch_misses": llc_prefetch_misses,
        "dTLB_loads": dtlb_loads,
        "dTLB_load_misses": dtlb_load_misses,
        "dTLB_stores": dtlb_stores,
        "dTLB_store_misses": dtlb_store_misses,
        "dTLB_prefetches": dtlb_prefetches,
        "dTLB_prefetch_misses": dtlb_prefetch_misses,
        "iTLB_loads": itlb_loads,
        "iTLB_load_misses": itlb_load_misses,
        "branch_loads": branch_loads,
        "branch_load_misses": branch_load_misses,
        "node_loads": node_loads,
        "node_load_misses": node_load_misses,
        "node_stores": node_stores,
        "node_store_misses": node_store_misses,
        "node_prefetches": node_prefetches,
        "node_prefetch_misses": node_prefetch_misses,
        "mem_loads": mem_loads,
        "mem_stores": mem_stores,
    }
    missing = set(ALL_EVENTS) - set(columns)
    if missing:
        raise RuntimeError(f"synthesizer does not cover events: {sorted(missing)}")
    return np.column_stack([columns[name] for name in ALL_EVENTS])


def execute_oracle(app, n_windows, rng, window_ms=DEFAULT_WINDOW_MS, run_sigma=0.05):
    """Per-phase reference of ``ApplicationBehavior.execute``."""
    if n_windows <= 0:
        raise ValueError(f"n_windows must be positive, got {n_windows}")
    run_params = [mix.params._perturbed_scalar(rng, run_sigma) for mix in app.phases]
    schedule = app._phase_schedule_scalar(n_windows, rng)
    trace = np.zeros((n_windows, len(ALL_EVENTS)))
    for phase_idx in np.unique(schedule):
        mask = schedule == phase_idx
        trace[mask] = synthesize_windows_oracle(
            run_params[phase_idx], int(mask.sum()), rng, window_ms=window_ms
        )
    return trace


def _outcome(call, seed):
    """``(kind, payload, next_uniform)`` of one call from a fresh generator."""
    rng = np.random.default_rng(seed)
    try:
        with np.errstate(all="ignore"):
            trace = call(rng)
    except ValueError:
        return "ValueError", None, None
    assert trace.dtype == np.float64 and trace.flags.c_contiguous
    assert trace.shape[1:] == (len(ALL_EVENTS),)
    return "ok", (trace.shape, trace.tobytes()), rng.random()


def assert_same(call, oracle, seed):
    assert _outcome(call, seed) == _outcome(oracle, seed)


def _app(weights, noise_sigmas, mean_dwell):
    phases = [
        PhaseMix(PhaseParameters(ipc=0.4 + 0.3 * k, llc_miss_rate=0.1 + 0.1 * k,
                                 noise_sigma=sigma), weight)
        for k, (weight, sigma) in enumerate(zip(weights, noise_sigmas))
    ]
    return ApplicationBehavior("app", phases, mean_dwell_windows=mean_dwell)


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
    n_phases=st.integers(1, 6),
    n_windows=st.integers(1, 300),
    # inf: the first phase runs the whole execution, the others never run
    mean_dwell=st.one_of(st.floats(1.0, 30.0), st.just(float("inf"))),
    run_sigma=st.sampled_from(RUN_SIGMAS),
    window_ms=st.sampled_from(WINDOW_MS),
)
def test_execute_matches_oracle(seed, data, n_phases, n_windows, mean_dwell,
                                run_sigma, window_ms):
    weights = data.draw(st.lists(st.floats(0.01, 1.0), min_size=n_phases,
                                 max_size=n_phases))
    sigmas = data.draw(st.lists(st.sampled_from(NOISE_SIGMAS), min_size=n_phases,
                                max_size=n_phases))
    app = _app(weights, sigmas, mean_dwell)
    assert_same(
        lambda r: app.execute(n_windows, r, window_ms=window_ms, run_sigma=run_sigma),
        lambda r: execute_oracle(app, n_windows, r, window_ms, run_sigma),
        seed,
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_long_execution_matches_oracle(seed):
    app = _app([0.5, 0.3, 0.15, 0.05], [0.08, 0.12, 0.05, 0.2], 8.0)
    assert_same(
        lambda r: app.execute(2000, r, run_sigma=RUN_SIGMAS[seed]),
        lambda r: execute_oracle(app, 2000, r, run_sigma=RUN_SIGMAS[seed]),
        seed,
    )


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_windows=st.integers(0, 300),
    noise_sigma=st.sampled_from(NOISE_SIGMAS),
    window_ms=st.sampled_from(WINDOW_MS),
    frequency_hz=st.sampled_from([1.0e9, DEFAULT_FREQUENCY_HZ]),
)
def test_synthesize_windows_matches_oracle(seed, n_windows, noise_sigma, window_ms,
                                           frequency_hz):
    params = PhaseParameters(ipc=1.7, noise_sigma=noise_sigma)
    assert_same(
        lambda r: synthesize_windows(params, n_windows, r, window_ms, frequency_hz),
        lambda r: synthesize_windows_oracle(params, n_windows, r, window_ms,
                                            frequency_hz),
        seed,
    )


# ---------------------------------------------------------- error parity
def test_negative_run_sigma_raises_like_oracle():
    app = _app([1.0, 1.0], [0.08, 0.08], 4.0)
    for call in (lambda r: app.execute(10, r, run_sigma=-0.01),
                 lambda r: execute_oracle(app, 10, r, run_sigma=-0.01)):
        with pytest.raises(ValueError):
            call(np.random.default_rng(0))


def test_negative_noise_sigma_on_scheduled_phase_raises_like_oracle():
    app = _app([1.0, 1.0], [0.08, -0.5], 2.0)
    schedule = app.phase_schedule(40, np.random.default_rng(3))
    assert 1 in schedule  # the bad phase runs
    for call in (lambda r: app.execute(40, r),
                 lambda r: execute_oracle(app, 40, r)):
        with pytest.raises(ValueError):
            call(np.random.default_rng(3))
    with pytest.raises(ValueError):
        synthesize_windows(PhaseParameters(noise_sigma=-0.5), 3, np.random.default_rng(0))


def test_negative_noise_sigma_on_unscheduled_phase_does_not_raise():
    # The second phase's share rounds away in the schedule's CDF, so it
    # never runs and its sigma is never used, as in the oracle.
    app = _app([1.0, 1e-20], [0.08, -0.5], 2.0)
    assert_same(lambda r: app.execute(50, r), lambda r: execute_oracle(app, 50, r), 4)
    assert _outcome(lambda r: app.execute(50, r), 4)[0] == "ok"
    empty = synthesize_windows(PhaseParameters(noise_sigma=-0.5), 0, np.random.default_rng(0))
    assert empty.shape == (0, len(ALL_EVENTS))
