"""Exception hierarchy for the repro library.

Every subsystem raises a subclass of :class:`ReproError` so callers can
distinguish library failures from programming errors.  The hierarchy mirrors
the package layout: architecture modelling, DFG construction, compilation
(mapping), the compile-time paging constraints, the PageMaster runtime
transformation, and simulation.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ArchitectureError(ReproError):
    """Invalid CGRA architecture description (grid, pages, interconnect)."""


class GraphError(ReproError):
    """Invalid dataflow-graph construction or query."""


class MappingError(ReproError):
    """The compiler could not produce (or was handed) a valid mapping."""


class LadderExhausted(MappingError):
    """No rung of an (II, attempt) ladder maps the kernel, or the bound shows
    none can.  The only error ever turned into an ``unmappable`` artifact or
    a fallback pass; any other :class:`MappingError` is a failure."""


class ConstraintViolation(ReproError):
    """A compile-time paging constraint (ring topology / register usage)
    or a transformation output constraint was violated."""


class CapabilityViolation(ConstraintViolation):
    """A mapping executes an op (or parks a route step) on a PE whose
    capability mask does not support that op class
    (:mod:`repro.arch.capability`)."""


class TransformError(ReproError):
    """The PageMaster transformation failed or was asked an illegal shrink."""


class SimulationError(ReproError):
    """The functional or system simulator reached an inconsistent state."""


class WorkloadError(ReproError):
    """Invalid workload specification for the system simulator."""


class ArtifactError(ReproError):
    """A compilation artifact could not be (de)serialized or does not match
    the key it was stored under (:mod:`repro.pipeline`)."""


class OracleViolation(SimulationError):
    """The event-driven system simulator disagreed with the cycle-quantum
    reference oracle, or a simulation invariant does not hold
    (:mod:`repro.sim.oracle`)."""
