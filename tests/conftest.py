"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.arch.cgra import CGRA
from repro.core.paging import PageLayout


@pytest.fixture(scope="session")
def full_width():
    """``build(dfg, cgra, layout)``: *dfg* mapped by the chain ladder and
    kept on every page of *layout* — an N-page schedule to fold onto each
    M <= N.  The paged compiler stores a mapping on the page prefix it
    spans instead, which for most kernels is fewer pages."""
    from repro.compiler.check import validate_mapping
    from repro.compiler.ems import EMSMapper
    from repro.compiler.paged import PagedMapping
    from repro.compiler.search import climb_ladder
    from repro.core.page_schedule import extract_page_schedule

    def build(dfg, cgra: CGRA, layout: PageLayout) -> PagedMapping:
        mapping = climb_ladder(EMSMapper(cgra, layout), dfg)
        validate_mapping(mapping, layout)
        return PagedMapping(mapping, layout, extract_page_schedule(mapping, layout))

    return build


@pytest.fixture
def cgra44() -> CGRA:
    """The paper's smallest configuration: 4x4 mesh."""
    return CGRA(4, 4, rf_depth=8)


@pytest.fixture
def cgra44_deep() -> CGRA:
    """4x4 with a rotating file deep enough for single-page folds."""
    return CGRA(4, 4, rf_depth=24)


@pytest.fixture
def layout44_q(cgra44_deep) -> PageLayout:
    """4x4 divided into four 2x2 pages (Fig. 4 left)."""
    return PageLayout(cgra44_deep, (2, 2))


@pytest.fixture
def layout44_c(cgra44_deep) -> PageLayout:
    """4x4 divided into four 4x1 column pages (Fig. 4 right)."""
    return PageLayout(cgra44_deep, (4, 1))
