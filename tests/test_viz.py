"""Smoke and content tests for the text visualisations."""

from __future__ import annotations

import pytest

from repro import viz
from repro.arch.cgra import CGRA
from repro.compiler.ems import map_dfg
from repro.core.pagemaster import PageMaster
from repro.core.paging import PageLayout
from repro.kernels import get_kernel


@pytest.fixture(scope="module")
def artifacts(full_width):
    cgra = CGRA(4, 4, rf_depth=16)
    layout = PageLayout(cgra, (2, 2))
    dfg = get_kernel("sor").build()
    mapping = map_dfg(dfg, cgra)
    paged = full_width(dfg, cgra, layout)
    placement = PageMaster(4, paged.ii, 2).place(batches=8)
    return mapping, layout, paged, placement


def test_render_mapping_contains_ops(artifacts):
    mapping, *_ = artifacts
    text = viz.render_mapping(mapping)
    assert "modulo slot 0" in text
    assert "II=" in text
    # every modulo slot rendered
    assert f"modulo slot {mapping.ii - 1}" in text


def test_render_mapping_slot_cap(artifacts):
    mapping, *_ = artifacts
    text = viz.render_mapping(mapping, max_slots=1)
    assert "modulo slot 1" not in text


def test_render_layout_shows_page_indices(artifacts):
    _, layout, _, _ = artifacts
    text = viz.render_layout(layout)
    assert " 0" in text and " 3" in text
    assert len(text.splitlines()) == 1 + layout.cgra.rows


def test_render_layout_marks_uncovered():
    lay = PageLayout(CGRA(6, 6), (2, 4))
    assert ".." in viz.render_layout(lay)


def test_render_page_schedule(artifacts):
    _, _, paged, _ = artifacts
    text = viz.render_page_schedule(paged.page_schedule)
    assert "page 0" in text
    assert "op" in text


def test_render_placement(artifacts):
    *_, placement = artifacts
    text = viz.render_placement(placement)
    assert "c0" in text and "c1" in text
    assert "PageMaster" in text


def test_render_placement_row_cap(artifacts):
    *_, placement = artifacts
    text = viz.render_placement(placement, max_rows=2)
    assert "more rows" in text
