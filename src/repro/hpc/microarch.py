"""Behavioural microarchitecture model that synthesizes HPC event counts.

The paper collects event counts from a real Intel Xeon X5550 (Nehalem) with
Linux ``perf``.  Offline we cannot execute real binaries, so this module
implements the closest synthetic equivalent: a *latent-parameter* model of
a program phase.  A small set of interpretable microarchitectural rates
(IPC, branch density, cache/TLB miss rates, prefetch intensity, NUMA
locality, stall fractions) fully determines the expected value of every
one of the 44 catalogued events for a sampling window; multiplicative
log-normal noise models measurement and execution variability.

Deriving all 44 events from ~16 latent rates gives the synthetic data the
property the paper's experiments depend on: events are *correlated* (e.g.
``LLC_loads`` is downstream of ``L1_dcache_load_misses``), so no single
counter carries all the class information and feature reduction is a real
trade-off.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro import fitmode
from repro.hpc.events import ALL_EVENTS

#: Nominal core frequency of the modelled Xeon X5550.
DEFAULT_FREQUENCY_HZ: float = 2.67e9

#: Sampling window used by the paper (Perf sampling time of 10 ms).
DEFAULT_WINDOW_MS: float = 10.0


@dataclass(frozen=True)
class PhaseParameters:
    """Latent microarchitectural rates describing one program phase.

    All ``*_rate``/``*_ratio``/``*_frac`` fields are dimensionless in
    ``[0, 1]`` unless noted.  The defaults describe an unremarkable
    compute phase.

    Attributes:
        ipc: retired instructions per core cycle (0 < ipc <= 4 on Nehalem).
        utilization: fraction of the window the program is on-core.
        branch_ratio: branch instructions per retired instruction.
        branch_mispred_rate: mispredictions per branch.
        bpu_miss_rate: BPU (branch target buffer) lookup miss rate.
        load_ratio: data loads per retired instruction.
        store_ratio: data stores per retired instruction.
        l1d_load_miss_rate: L1D misses per load.
        l1d_store_miss_rate: L1D misses per store.
        l1i_miss_rate: L1I misses per fetch access.
        llc_miss_rate: LLC misses per LLC access.
        dtlb_load_miss_rate: dTLB misses per load lookup.
        dtlb_store_miss_rate: dTLB misses per store lookup.
        itlb_miss_rate: iTLB misses per fetch lookup.
        prefetch_intensity: hardware prefetches issued per demand L1D miss.
        prefetch_miss_rate: fraction of prefetches that miss their level.
        node_remote_ratio: fraction of memory traffic hitting a remote node.
        frontend_stall_frac: cycles with no uops issued / total cycles.
        backend_stall_frac: cycles with back-end stalled / total cycles.
        noise_sigma: per-window log-normal noise scale for this phase.
    """

    ipc: float = 1.2
    utilization: float = 0.95
    branch_ratio: float = 0.18
    branch_mispred_rate: float = 0.04
    bpu_miss_rate: float = 0.03
    load_ratio: float = 0.28
    store_ratio: float = 0.12
    l1d_load_miss_rate: float = 0.03
    l1d_store_miss_rate: float = 0.02
    l1i_miss_rate: float = 0.01
    llc_miss_rate: float = 0.25
    dtlb_load_miss_rate: float = 0.004
    dtlb_store_miss_rate: float = 0.003
    itlb_miss_rate: float = 0.002
    prefetch_intensity: float = 0.6
    prefetch_miss_rate: float = 0.35
    node_remote_ratio: float = 0.08
    frontend_stall_frac: float = 0.18
    backend_stall_frac: float = 0.25
    noise_sigma: float = 0.08

    def perturbed(self, rng: np.random.Generator, sigma: float = 0.05) -> "PhaseParameters":
        """Return a jittered copy modelling run-to-run variation.

        Every latent rate is scaled by an independent log-normal factor
        ``exp(N(0, sigma))`` and clipped back to a sane range.  Used by the
        execution context so that re-running an application (as the paper
        does, 11 times per app) never reproduces identical counts.

        This is the one-row case of the perturbation every execution
        applies to all of its phases (:func:`_perturb`): one ``rng.normal``
        call draws all factors, consuming the stream exactly like the
        retained per-field reference (:meth:`_perturbed_scalar`).

        Raises:
            ValueError: if ``sigma`` is negative or NaN, or a rate is NaN.
        """
        if fitmode.scalar_fit_enabled():
            return self._perturbed_scalar(rng, sigma)
        row = _perturb(_rate_matrix([self]), rng, sigma)[0]
        fields = dict(zip(_RATE_FIELDS, row.tolist()))
        return PhaseParameters(**fields, noise_sigma=self.noise_sigma)

    def _perturbed_scalar(
        self, rng: np.random.Generator, sigma: float = 0.05
    ) -> "PhaseParameters":
        """Per-field jitter loop (differential reference for `perturbed`)."""
        fields = {}
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if field.name == "noise_sigma":
                fields[field.name] = value
                continue
            factor = float(np.exp(rng.normal(0.0, sigma)))
            ceiling = 4.0 if field.name in ("ipc", "prefetch_intensity") else 1.0
            fields[field.name] = float(np.clip(value * factor, 1e-6, ceiling))
        return PhaseParameters(**fields)


#: The latent rates, in field order: every field but ``noise_sigma``.
_RATE_FIELDS: tuple[str, ...] = tuple(
    f.name for f in dataclasses.fields(PhaseParameters) if f.name != "noise_sigma"
)

#: Clip ceiling of each jittered rate.  ipc and prefetch_intensity are
#: counts-per-event, not probabilities; they may exceed 1.
_RATE_CEILINGS = np.array(
    [4.0 if name in ("ipc", "prefetch_intensity") else 1.0 for name in _RATE_FIELDS]
)

#: Scale of each event's log-normal window noise (relative to the phase's
#: ``noise_sigma``), in the order the noise is drawn.  Prefetch traffic is
#: the noisiest; misprediction counts are noisy (speculation depth varies
#: window to window) while BPU lookups track retired branches almost
#: deterministically.  ``cache_references`` and ``cache_misses`` are sums
#: of LLC events and draw no noise of their own.
_JITTER: dict[str, float] = {
    "cpu_cycles": 1.0, "instructions": 1.0, "branch_instructions": 1.0,
    "branch_misses": 1.8, "branch_loads": 0.25, "branch_load_misses": 1.0,
    "L1_dcache_loads": 1.0, "L1_dcache_stores": 1.0,
    "L1_dcache_load_misses": 1.0, "L1_dcache_store_misses": 1.0,
    "L1_dcache_prefetches": 3.0, "L1_dcache_prefetch_misses": 3.0,
    "L1_icache_loads": 1.0, "L1_icache_load_misses": 1.0,
    "L1_icache_prefetches": 3.0, "L1_icache_prefetch_misses": 3.0,
    "LLC_loads": 1.0, "LLC_load_misses": 1.0,
    "LLC_stores": 1.0, "LLC_store_misses": 1.0,
    "LLC_prefetches": 3.0, "LLC_prefetch_misses": 3.0,
    "dTLB_loads": 1.0, "dTLB_load_misses": 1.0,
    "dTLB_stores": 1.0, "dTLB_store_misses": 1.0,
    "dTLB_prefetches": 3.0, "dTLB_prefetch_misses": 3.0,
    "iTLB_loads": 1.0, "iTLB_load_misses": 1.0,
    "node_loads": 1.0, "node_load_misses": 1.0,
    "node_stores": 1.0, "node_store_misses": 1.0,
    "node_prefetches": 3.0, "node_prefetch_misses": 3.0,
    "mem_loads": 1.0, "mem_stores": 1.0,
    "stalled_cycles_frontend": 1.0, "stalled_cycles_backend": 1.0,
    "ref_cycles": 1.0, "bus_cycles": 1.0,
}
_JITTER_ROW = {name: row for row, name in enumerate(_JITTER)}
_JITTER_SCALES = np.array(list(_JITTER.values()))


def _rate_matrix(phases: list[PhaseParameters]) -> np.ndarray:
    """``(phases, 19)`` latent rates, columns in :data:`_RATE_FIELDS` order."""
    rates = np.array(
        [[getattr(p, name) for name in _RATE_FIELDS] for p in phases], dtype=float
    )
    if np.isnan(rates).any():
        raise ValueError("phase rates must not be NaN")
    return rates


def _check_positive(name: str, value: float) -> None:
    """Reject a zero, negative, infinite or NaN window length or clock."""
    if not 0.0 < value < np.inf:
        raise ValueError(f"{name} must be finite and positive, got {value}")


def _perturb(rates: np.ndarray, rng: np.random.Generator, sigma: float) -> np.ndarray:
    """Jitter every rate by ``exp(N(0, sigma))`` from one draw, then clip."""
    if not sigma >= 0.0:
        raise ValueError(f"perturbation sigma must be non-negative, got {sigma}")
    factors = np.exp(rng.normal(0.0, sigma, size=rates.shape))
    return np.clip(rates * factors, 1e-6, _RATE_CEILINGS)


def _synthesize(
    rates: np.ndarray,
    sigmas: np.ndarray,
    schedule: np.ndarray,
    rng: np.random.Generator,
    window_ms: float,
    frequency_hz: float,
) -> np.ndarray:
    """Synthesize all 44 event columns of one execution in one pass.

    The window noise is one ``standard_normal`` draw laid out phase by
    phase in ascending index order, each phase as one row per event
    (:data:`_JITTER` order) over its windows: event ``k`` of the ``i``-th
    window of phase ``p`` sits at ``42 * start[p] + k * count[p] + i``,
    where ``start[p]`` counts the windows of lower phases.  Every column
    is then computed once over all windows, in schedule order, with the
    window's own phase rates, and written straight into the result.

    Args:
        rates: ``(phases, 19)`` latent rates (:data:`_RATE_FIELDS` order).
        sigmas: ``(phases,)`` window noise scale of each phase.
        schedule: phase index of every window.
    """
    n = schedule.size
    rows = len(_JITTER)
    counts = np.bincount(schedule, minlength=len(sigmas))
    scheduled = sigmas[counts > 0]
    if not (scheduled >= 0.0).all():
        raise ValueError(f"noise_sigma must be non-negative, got {scheduled.min()}")
    window_sigma = sigmas[schedule]
    sorted_position = np.empty(n, dtype=np.intp)
    sorted_position[np.argsort(schedule, kind="stable")] = np.arange(n)
    starts = np.cumsum(counts) - counts
    # rows * start[p] + i == sorted_position + (rows - 1) * start[p]
    base = sorted_position + (rows - 1) * starts[schedule]
    stride = counts[schedule]
    trace = np.empty((n, len(ALL_EVENTS)))
    # Until the columns overwrite it, the result's buffer holds the draw
    # and then the per-window noise scales.
    scratch = trace.reshape(-1)[: rows * n]
    rng.standard_normal(out=scratch)
    noise = np.empty((rows, n))
    # Gathering half the rows at a time halves the index temporary; the
    # indices are in range, and mode="clip" lets take() write `out` unbuffered.
    halves = np.arange(rows).reshape(2, -1)
    index = np.empty((halves.shape[1], n), dtype=np.intp)
    for half, out in zip(halves, np.split(noise, 2)):
        np.multiply.outer(half, stride, out=index)
        index += base
        np.take(scratch, index, out=out, mode="clip")
    del index
    # normal(0, s) is 0.0 + s * standard_normal; exp() ignores the sign
    # of a zero, so the 0.0 is dropped.
    scales = np.multiply.outer(_JITTER_SCALES, window_sigma, out=scratch.reshape(rows, n))
    noise *= scales
    np.exp(noise, out=noise)

    rate = dict(zip(_RATE_FIELDS, np.take(rates.T, schedule, axis=1)))
    columns = dict(zip(ALL_EVENTS, trace.T))

    def event(name: str, value, *factors) -> np.ndarray:
        """Write ``value * factors... * noise`` (left to right) to the column."""
        for factor in factors:
            value = value * factor
        return np.multiply(value, noise[_JITTER_ROW[name]], out=columns[name])

    cycles = event("cpu_cycles", frequency_hz * (window_ms / 1000.0), rate["utilization"])
    instructions = event("instructions", cycles, rate["ipc"])

    branches = event("branch_instructions", instructions, rate["branch_ratio"])
    event("branch_misses", branches, rate["branch_mispred_rate"])
    branch_loads = event("branch_loads", branches, 1.05)
    event("branch_load_misses", branch_loads, rate["bpu_miss_rate"])

    loads = event("L1_dcache_loads", instructions, rate["load_ratio"])
    stores = event("L1_dcache_stores", instructions, rate["store_ratio"])

    l1d_load_misses = event("L1_dcache_load_misses", loads, rate["l1d_load_miss_rate"])
    l1d_store_misses = event("L1_dcache_store_misses", stores, rate["l1d_store_miss_rate"])
    l1d_prefetches = event("L1_dcache_prefetches", l1d_load_misses, rate["prefetch_intensity"])
    l1d_prefetch_misses = event(
        "L1_dcache_prefetch_misses", l1d_prefetches, rate["prefetch_miss_rate"]
    )

    # The front end fetches roughly one L1I access per issued instruction
    # bundle (4-wide on Nehalem), so fetches scale with instructions.
    l1i_loads = event("L1_icache_loads", instructions, 0.27)
    l1i_load_misses = event("L1_icache_load_misses", l1i_loads, rate["l1i_miss_rate"])
    l1i_prefetches = event("L1_icache_prefetches", l1i_load_misses, 0.5)
    l1i_prefetch_misses = event(
        "L1_icache_prefetch_misses", l1i_prefetches, rate["prefetch_miss_rate"]
    )

    # LLC demand traffic is downstream of the L1 misses.
    llc_loads = event("LLC_loads", l1d_load_misses + l1i_load_misses)
    llc_load_misses = event("LLC_load_misses", llc_loads, rate["llc_miss_rate"])
    llc_stores = event("LLC_stores", l1d_store_misses)
    llc_store_misses = event("LLC_store_misses", llc_stores, rate["llc_miss_rate"], 0.9)
    llc_prefetches = event("LLC_prefetches", l1d_prefetch_misses + l1i_prefetch_misses)
    llc_prefetch_misses = event(
        "LLC_prefetch_misses", llc_prefetches, rate["prefetch_miss_rate"]
    )

    cache_references = np.add(llc_loads, llc_stores, out=columns["cache_references"])
    cache_references += llc_prefetches
    cache_misses = np.add(llc_load_misses, llc_store_misses, out=columns["cache_misses"])
    cache_misses += llc_prefetch_misses

    dtlb_loads = event("dTLB_loads", loads)
    event("dTLB_load_misses", dtlb_loads, rate["dtlb_load_miss_rate"])
    dtlb_stores = event("dTLB_stores", stores)
    event("dTLB_store_misses", dtlb_stores, rate["dtlb_store_miss_rate"])
    dtlb_prefetches = event("dTLB_prefetches", l1d_prefetches, 0.8)
    event("dTLB_prefetch_misses", dtlb_prefetches, rate["dtlb_load_miss_rate"])

    itlb_loads = event("iTLB_loads", l1i_loads, 0.5)
    event("iTLB_load_misses", itlb_loads, rate["itlb_miss_rate"])

    # Memory-node traffic is what escapes the LLC, split by NUMA locality.
    remote = rate["node_remote_ratio"]
    local = 1.0 - remote
    memory_loads = llc_load_misses + llc_prefetch_misses
    event("node_loads", memory_loads, local)
    event("node_load_misses", memory_loads, remote)
    event("node_stores", llc_store_misses, local)
    event("node_store_misses", llc_store_misses, remote)
    event("node_prefetches", llc_prefetch_misses, local)
    event("node_prefetch_misses", llc_prefetch_misses, remote, 0.5)

    event("mem_loads", memory_loads)
    event("mem_stores", llc_store_misses)

    event("stalled_cycles_frontend", cycles, rate["frontend_stall_frac"])
    event("stalled_cycles_backend", cycles, rate["backend_stall_frac"])
    event("ref_cycles", cycles)
    event("bus_cycles", cycles / 8.0)
    return trace


def synthesize_windows(
    params: PhaseParameters,
    n_windows: int,
    rng: np.random.Generator,
    window_ms: float = DEFAULT_WINDOW_MS,
    frequency_hz: float = DEFAULT_FREQUENCY_HZ,
) -> np.ndarray:
    """Synthesize per-window counts for all 44 events of one phase.

    The one-phase case of the execution kernel: every window runs in
    ``params``.

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

    Raises:
        ValueError: if ``n_windows`` is negative, ``window_ms`` or
            ``frequency_hz`` is not finite and positive, a rate is NaN,
            or (with windows to draw) ``noise_sigma`` is negative or NaN.
    """
    if n_windows < 0:
        raise ValueError(f"n_windows must be non-negative, got {n_windows}")
    _check_positive("window_ms", window_ms)
    _check_positive("frequency_hz", frequency_hz)
    return _synthesize(
        _rate_matrix([params]),
        np.array([params.noise_sigma], dtype=float),
        np.zeros(n_windows, dtype=np.intp),
        rng,
        window_ms,
        frequency_hz,
    )


@dataclass(frozen=True)
class PhaseMix:
    """One phase of an application together with its expected time share."""

    params: PhaseParameters
    weight: float

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError(f"phase weight must be positive, got {self.weight}")


class ApplicationBehavior:
    """Microarchitectural behaviour of one application as a phase mixture.

    An application dwells in one phase for a geometrically distributed
    number of windows, then switches to another phase with probability
    proportional to the phase weights.  This yields the bursty,
    phase-structured traces real programs produce under ``perf``.

    Args:
        name: unique application identifier.
        phases: the application's phases and their time shares.
        mean_dwell_windows: average number of consecutive windows spent in
            a phase before re-drawing.
    """

    def __init__(
        self,
        name: str,
        phases: list[PhaseMix],
        mean_dwell_windows: float = 8.0,
    ) -> None:
        if not phases:
            raise ValueError("an application needs at least one phase")
        if not mean_dwell_windows >= 1.0:
            raise ValueError(f"mean_dwell_windows must be >= 1, got {mean_dwell_windows}")
        self.name = name
        self.phases = list(phases)
        self.mean_dwell_windows = mean_dwell_windows
        total = sum(p.weight for p in self.phases)
        self._weights = np.array([p.weight / total for p in self.phases])
        self._rates = _rate_matrix([p.params for p in self.phases])
        self._sigmas = np.array([p.params.noise_sigma for p in self.phases], dtype=float)

    def phase_schedule(self, n_windows: int, rng: np.random.Generator) -> np.ndarray:
        """Draw the per-window phase index sequence for one execution.

        Both paths produce the same schedule from the same generator
        state and leave the generator at the same stream position.  The
        reference consumes the stream draw by draw — one ``rng.choice``
        to enter the first phase, one switch uniform per later window,
        one more ``rng.choice`` at each switch.  The fast path draws a
        ``2 * n_windows`` buffer up front (the worst-case consumption),
        decodes it with the same comparisons (``Generator.choice`` with
        probabilities spends exactly one uniform, mapped through the
        weight CDF), then rewinds the generator and advances it by the
        draws actually consumed.

        An empty schedule consumes nothing on either path; previously a
        phase was drawn even for zero windows.
        """
        if n_windows <= 0:
            return np.empty(0, dtype=np.intp)
        if fitmode.scalar_fit_enabled():
            return self._phase_schedule_scalar(n_windows, rng)
        from bisect import bisect_right

        state = rng.bit_generator.state
        buffer = rng.random(2 * n_windows).tolist()
        # Generator.choice normalizes its CDF by the last element before
        # the searchsorted lookup; replicate exactly
        cdf_array = np.cumsum(self._weights)
        cdf_array /= cdf_array[-1]
        cdf = cdf_array.tolist()
        last_index = len(self.phases) - 1
        switch_prob = 1.0 / self.mean_dwell_windows
        schedule = np.empty(n_windows, dtype=np.intp)
        current = min(bisect_right(cdf, buffer[0]), last_index)
        schedule[0] = current
        position = 1
        for i in range(1, n_windows):
            switch = buffer[position] < switch_prob
            position += 1
            if switch:
                current = min(bisect_right(cdf, buffer[position]), last_index)
                position += 1
            schedule[i] = current
        rng.bit_generator.state = state
        rng.random(position)
        return schedule

    def _phase_schedule_scalar(
        self, n_windows: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw-by-draw schedule loop (differential reference)."""
        schedule = np.empty(n_windows, dtype=np.intp)
        switch_prob = 1.0 / self.mean_dwell_windows
        current = int(rng.choice(len(self.phases), p=self._weights))
        for i in range(n_windows):
            if i > 0 and rng.random() < switch_prob:
                current = int(rng.choice(len(self.phases), p=self._weights))
            schedule[i] = current
        return schedule

    def execute(
        self,
        n_windows: int,
        rng: np.random.Generator,
        window_ms: float = DEFAULT_WINDOW_MS,
        run_sigma: float = 0.05,
    ) -> np.ndarray:
        """Simulate one execution and return all 44 event counts per window.

        Each execution perturbs the phase parameters once (run-to-run
        variation, one draw for all phases), draws the phase schedule,
        then synthesizes every window from its phase in one pass.

        Returns:
            Array of shape ``(n_windows, 44)`` in ``ALL_EVENTS`` order.

        Raises:
            ValueError: if ``n_windows`` is not positive, ``window_ms`` is
                not finite and positive, ``run_sigma`` is negative or NaN,
                or a scheduled phase's ``noise_sigma`` is negative or NaN.
        """
        if n_windows <= 0:
            raise ValueError(f"n_windows must be positive, got {n_windows}")
        _check_positive("window_ms", window_ms)
        rates = _perturb(self._rates, rng, run_sigma)
        schedule = self.phase_schedule(n_windows, rng)
        return _synthesize(
            rates, self._sigmas, schedule, rng, window_ms, DEFAULT_FREQUENCY_HZ
        )
