"""Shared fixtures for the experiment benchmarks.

Every bench target regenerates one of the paper's tables/figures and
prints the series it produces; compilation results are memoised in the
repository-level artifact store (:mod:`repro.pipeline`) so repeated runs
are fast.
"""

from __future__ import annotations

import pytest

from repro.pipeline import ArtifactStore


@pytest.fixture(scope="session")
def store() -> ArtifactStore:
    return ArtifactStore()


def emit(text: str) -> None:
    """Print a result block on its own line."""
    print("\n" + text)
