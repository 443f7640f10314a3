"""Shared fixtures: small corpora and synthetic classification data."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.ml.validation import app_level_split
from repro.workloads.benign import BENIGN_FAMILIES
from repro.workloads.corpus import CorpusBuilder
from repro.workloads.malware import MALWARE_FAMILIES

# Under CI, property tests draw the same examples on every run and print
# the reproduction blob of a failing example, so a differential failure in
# a CI log replays locally with ``@reproduce_failure``.
settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture(scope="session")
def small_corpus():
    """Full family mix, few windows per app — fast but realistic."""
    builder = CorpusBuilder(
        families=BENIGN_FAMILIES + MALWARE_FAMILIES,
        seed=2018,
        windows_per_app=8,
    )
    return builder.build()


@pytest.fixture(scope="session")
def small_split(small_corpus):
    """The paper's 70/30 application-level split of the small corpus."""
    return app_level_split(small_corpus, train_fraction=0.7, seed=7)


@pytest.fixture(scope="session")
def blobs():
    """Well-separated 2-class blobs: any sane classifier should ace them."""
    rng = np.random.default_rng(0)
    n = 300
    x0 = rng.normal(loc=[-2.0, -2.0, 0.0], scale=0.6, size=(n, 3))
    x1 = rng.normal(loc=[2.0, 2.0, 0.5], scale=0.6, size=(n, 3))
    features = np.vstack([x0, x1])
    labels = np.concatenate([np.zeros(n, dtype=np.intp), np.ones(n, dtype=np.intp)])
    order = rng.permutation(2 * n)
    return features[order], labels[order]


@pytest.fixture(scope="session")
def xor_data():
    """Four-cluster XOR layout: linearly inseparable, multimodal."""
    rng = np.random.default_rng(1)
    n = 150
    centers0 = [(0.0, 0.0), (3.0, 3.0)]
    centers1 = [(0.0, 3.0), (3.0, 0.0)]
    xs, ys = [], []
    for label, centers in ((0, centers0), (1, centers1)):
        for cx, cy in centers:
            xs.append(rng.normal([cx, cy], 0.55, size=(n, 2)))
            ys.append(np.full(n, label, dtype=np.intp))
    features = np.vstack(xs)
    labels = np.concatenate(ys)
    order = rng.permutation(len(labels))
    return features[order], labels[order]


def train_test(features: np.ndarray, labels: np.ndarray, frac: float = 0.75):
    """Deterministic split helper for the synthetic fixtures."""
    cut = int(len(labels) * frac)
    return features[:cut], labels[:cut], features[cut:], labels[cut:]
