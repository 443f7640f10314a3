"""Golden SHA-256 pins of the synthetic HPC data stream.

The differential tests compare a fast path with its reference; they
cannot see a change that moves both in lockstep.  These pins can: they
fix the exact bytes of the default corpus (both collection modes) and
of a contaminated container's traces, so any change to trace synthesis,
phase scheduling, perturbation or collection that is not bit-identical
fails here.  On an intentional change of the data model, regenerate
with ``REPRO_REGEN_GOLDEN=1`` and review the diff of the JSON::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/workloads/test_stream_digests.py
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.hpc.lxc import ContainerPool
from repro.workloads import default_corpus
from repro.workloads.benign import BENIGN_FAMILIES
from repro.workloads.malware import MALWARE_FAMILIES

GOLDEN_PATH = Path(__file__).with_name("golden_stream_digests.json")


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for array in arrays:
        h.update(f"{array.dtype.str}{array.shape}".encode())
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def _corpus_digest(collection: str, windows_per_app: int) -> str:
    data = default_corpus(
        seed=2018, windows_per_app=windows_per_app, collection=collection
    )
    return _digest(data.features, data.labels)


def _contaminated_digest() -> str:
    """Traces of malware runs followed by benign runs in one reused
    container, so later runs carry the contamination noise."""
    rng = np.random.default_rng(2018)
    malware = MALWARE_FAMILIES[0].instantiate(rng)[0]
    benign = BENIGN_FAMILIES[0].instantiate(rng)[0]
    pool = ContainerPool(seed=31, destroy_after_run=False)
    traces = [pool.run(malware, 12, is_malware=True) for _ in range(3)]
    traces += [pool.run(benign, n, is_malware=False) for n in (1, 7, 40)]
    return _digest(*traces)


def _compute() -> dict[str, str]:
    return {
        "corpus/batched": _corpus_digest("batched", 4),
        # Multiplexing observes each of the 11 four-event batches once per
        # rotation, so a shorter run leaves events unobserved.
        "corpus/multiplexed": _corpus_digest("multiplexed", 12),
        "container/malware_then_benign": _contaminated_digest(),
    }


def test_golden_stream_digests():
    digests = _compute()
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {GOLDEN_PATH.name}")
    assert digests == json.loads(GOLDEN_PATH.read_text())
