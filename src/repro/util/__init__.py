"""Shared utilities: error types, seeded RNG helpers, table formatting."""

from repro.util.errors import (
    ReproError,
    ArchitectureError,
    GraphError,
    MappingError,
    ConstraintViolation,
    TransformError,
    SimulationError,
)
from repro.util.rng import make_rng
from repro.util.tables import format_table

__all__ = [
    "ReproError",
    "ArchitectureError",
    "GraphError",
    "MappingError",
    "ConstraintViolation",
    "TransformError",
    "SimulationError",
    "make_rng",
    "format_table",
]
