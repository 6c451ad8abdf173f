"""The compilation artifact: everything a compiled kernel ever needs again.

A :class:`CompiledKernel` is the unit the :class:`~repro.pipeline.store.
ArtifactStore` persists and the rest of the codebase consumes.  It carries
the paged mapping itself (placements and routes), the page need, both IIs,
and the precomputed steady-state II table of the PageMaster-shrunk
schedule — so neither the benches nor the system simulator ever re-invoke
the mapper (or re-derive PageMaster placements) for a kernel that was
compiled before.

Artifacts are plain data with a versioned, canonical JSON encoding:
``to_json()`` of equal artifacts is byte-identical (sorted keys, fixed
separators), which is what lets the parallel fan-out of
:func:`repro.pipeline.compile.compile_many` be checked against the serial
path exactly.  The page-level schedule is not stored redundantly; it is
reconstructed deterministically from the mapping by :meth:`materialize`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from repro.util.errors import ArtifactError
from repro.util.fingerprint import canonical_json, sha256

__all__ = ["ARTIFACT_VERSION", "ArtifactKey", "CompiledKernel"]

#: Bump when the artifact schema or the meaning of a field changes; stores
#: treat artifacts of any other version as cache misses.
ARTIFACT_VERSION = 1


@dataclass(frozen=True)
class ArtifactKey:
    """Content address of one compilation: what was compiled (``dfg_fp``),
    for which fabric (``arch_fp``), with which mapper tuning
    (``mapper_fp``)."""

    dfg_fp: str
    arch_fp: str
    mapper_fp: str

    @property
    def digest(self) -> str:
        """Filesystem-safe combined digest used as the store filename."""
        blob = f"{self.dfg_fp}/{self.arch_fp}/{self.mapper_fp}".encode("ascii")
        return sha256(blob).hexdigest()

    def __str__(self) -> str:
        return f"{self.dfg_fp}/{self.arch_fp}/{self.mapper_fp}"


@dataclass(frozen=True)
class CompiledKernel:
    """One kernel compiled for one (CGRA, page layout, mapper config).

    ``placements`` holds ``(op_id, row, col, time)`` per DFG op;
    ``routes`` holds ``(edge_id, steps, tap)`` with each step/tap a
    ``(row, col, time)`` triple; ``steady_ii`` holds ``(m, numerator,
    denominator)`` of the exact steady-state II for every shrink target
    ``m <= pages_used``.  ``unmappable`` artifacts record that the paged
    compiler could not honour the constraints (the paper likewise omits
    such configurations); they keep the baseline II and nothing else.

    ``capability`` is the fabric's heterogeneous PE capability map in the
    canonical :attr:`~repro.arch.capability.CapabilityMap.classes` encoding
    (None for homogeneous fabrics).  It is emitted in the JSON only when
    set, so artifacts of homogeneous fabrics — including every artifact
    minted before the capability model existed — keep their exact bytes.
    """

    kernel: str
    rows: int
    cols: int
    rf_depth: int
    mem_ports_per_row: int
    page_shape: tuple[int, int]
    layout_wrap: bool  # mapping's layout used the ring-wrap link topology
    seed: int
    dfg_fp: str
    arch_fp: str
    mapper_fp: str
    ii_base: int
    unmappable: bool = False
    ii_paged: int = 0
    pages_used: int = 0
    wrap_used: bool = False
    placements: tuple[tuple[int, int, int, int], ...] = ()
    routes: tuple[
        tuple[
            int,
            tuple[tuple[int, int, int], ...],
            tuple[int, int, int] | None,
        ],
        ...,
    ] = ()
    steady_ii: tuple[tuple[int, int, int], ...] = ()
    capability: tuple[tuple[str, tuple[int, ...]], ...] | None = None

    # -- identity -------------------------------------------------------------------

    @property
    def key(self) -> ArtifactKey:
        return ArtifactKey(self.dfg_fp, self.arch_fp, self.mapper_fp)

    # -- serialization --------------------------------------------------------------

    def to_json_dict(self) -> dict:
        payload = {
            "version": ARTIFACT_VERSION,
            "kernel": self.kernel,
            "rows": self.rows,
            "cols": self.cols,
            "rf_depth": self.rf_depth,
            "mem_ports_per_row": self.mem_ports_per_row,
            "page_shape": list(self.page_shape),
            "layout_wrap": self.layout_wrap,
            "seed": self.seed,
            "dfg_fp": self.dfg_fp,
            "arch_fp": self.arch_fp,
            "mapper_fp": self.mapper_fp,
            "ii_base": self.ii_base,
            "unmappable": self.unmappable,
            "ii_paged": self.ii_paged,
            "pages_used": self.pages_used,
            "wrap_used": self.wrap_used,
            "placements": [list(p) for p in self.placements],
            "routes": [
                [e, [list(s) for s in steps], list(tap) if tap is not None else None]
                for (e, steps, tap) in self.routes
            ],
            "steady_ii": [list(s) for s in self.steady_ii],
        }
        if self.capability is not None:
            payload["capability"] = [
                [cls_, list(ids)] for (cls_, ids) in self.capability
            ]
        return payload

    def to_json(self) -> str:
        """Canonical encoding: equal artifacts serialize byte-identically."""
        return canonical_json(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, raw: dict) -> "CompiledKernel":
        """The artifact *raw* encodes; :class:`ArtifactError` unless every
        field has its JSON type and arity (``type(x) is int``: ``True`` is
        an ``int`` to ``isinstance``), every fold-table denominator is
        positive, ``ii_base`` is at least 1 and, on a mappable artifact,
        so are ``ii_paged`` and ``pages_used``: a reader never meets a
        malformed nested field or a profile it cannot build later."""
        if not isinstance(raw, dict):
            raise ArtifactError(f"artifact payload is {type(raw).__name__}, not an object")
        version = raw.get("version")
        if type(version) is not int or version != ARTIFACT_VERSION:
            raise ArtifactError(
                f"artifact schema version {version!r} != {ARTIFACT_VERSION}"
            )
        try:
            fields = {name: raw[name] for name in _SCALARS}
            page_shape, placements = raw["page_shape"], raw["placements"]
            routes, steady_ii = raw["routes"], raw["steady_ii"]
        except KeyError as exc:
            raise ArtifactError(f"malformed artifact payload: no field {exc}") from None
        for name, kind in _SCALARS.items():
            if type(fields[name]) is not kind:
                raise ArtifactError(f"{name} {fields[name]!r} is not a {kind.__name__}")
        positive = ["ii_base"]
        if not fields["unmappable"]:  # an unmappable one stores zeros there
            positive += ["ii_paged", "pages_used"]
        for name in positive:
            if fields[name] < 1:
                raise ArtifactError(f"{name} {fields[name]} is below 1")
        steady = tuple(
            _ints(s, 3, "steady_ii entry") for s in _items(steady_ii, "steady_ii")
        )
        if any(den <= 0 for (_, _, den) in steady):
            raise ArtifactError(f"steady_ii {steady_ii!r} has a denominator <= 0")
        capability = raw.get("capability")
        if capability is not None:
            capability = tuple(
                _capability_row(row) for row in _items(capability, "capability")
            )
        return cls(
            **fields,
            page_shape=_ints(page_shape, 2, "page_shape"),
            placements=tuple(
                _ints(p, 4, "placement") for p in _items(placements, "placements")
            ),
            routes=tuple(_route(r) for r in _items(routes, "routes")),
            steady_ii=steady,
            capability=capability,
        )

    # -- consumption ----------------------------------------------------------------

    def steady_table(self) -> dict[int, Fraction]:
        """The PageMaster steady-state II per shrink target, exact."""
        return {m: Fraction(num, den) for (m, num, den) in self.steady_ii}

    def profile(self):
        """The :class:`~repro.sim.system.KernelProfile` the system model
        consumes (None for unmappable configurations)."""
        from repro.sim.system import KernelProfile

        if self.unmappable:
            return None
        return KernelProfile(
            self.kernel,
            self.ii_base,
            self.ii_paged,
            self.pages_used,
            self.wrap_used,
            steady_ii=self.steady_table(),
        )

    def build_cgra(self):
        """The :class:`~repro.arch.cgra.CGRA` this artifact was compiled
        for, rebuilt from its stored fields (capability map included)."""
        from repro.arch.capability import CapabilityMap
        from repro.arch.cgra import CGRA

        return CGRA(
            self.rows,
            self.cols,
            rf_depth=self.rf_depth,
            mem_ports_per_row=self.mem_ports_per_row,
            capability=CapabilityMap(self.rows, self.cols, self.capability)
            if self.capability is not None
            else None,
        )

    def materialize(self, dfg):
        """Rebuild the full :class:`~repro.compiler.paged.PagedMapping` —
        mapping, layout, and page-level schedule — from the artifact.

        *dfg* must be the graph this artifact was compiled from (checked
        against ``dfg_fp``); the page schedule is re-extracted
        deterministically rather than stored twice.
        """
        from repro.arch.interconnect import Coord
        from repro.compiler.mapping import Mapping, Placement, Route, RouteStep
        from repro.compiler.paged import PagedMapping
        from repro.core.page_schedule import extract_page_schedule
        from repro.core.paging import PageLayout

        if self.unmappable:
            raise ArtifactError(
                f"artifact for {self.kernel!r} is unmappable; nothing to materialize"
            )
        if dfg.fingerprint() != self.dfg_fp:
            raise ArtifactError(
                f"DFG fingerprint {dfg.fingerprint()} does not match the "
                f"artifact's {self.dfg_fp}"
            )
        cgra = self.build_cgra()
        full = PageLayout(cgra, self.page_shape)
        layout = PageLayout(cgra, self.page_shape, allow_wrap=self.layout_wrap)
        if self.pages_used < layout.num_pages:
            layout = layout.subchain(self.pages_used)
        placements = {
            op_id: Placement(op_id, Coord(r, c), t)
            for (op_id, r, c, t) in self.placements
        }
        routes = {
            e: Route(
                e,
                tuple(RouteStep(Coord(r, c), t) for (r, c, t) in steps),
                RouteStep(Coord(tap[0], tap[1]), tap[2]) if tap is not None else None,
            )
            for (e, steps, tap) in self.routes
        }
        mapping = Mapping(cgra, dfg, self.ii_paged, placements, routes)
        schedule = extract_page_schedule(mapping, layout)
        return PagedMapping(mapping, layout, schedule, full)


#: JSON type of every scalar field of the encoding.
_SCALARS = {
    "kernel": str, "rows": int, "cols": int, "rf_depth": int,
    "mem_ports_per_row": int, "layout_wrap": bool, "seed": int,
    "dfg_fp": str, "arch_fp": str, "mapper_fp": str, "ii_base": int,
    "unmappable": bool, "ii_paged": int, "pages_used": int, "wrap_used": bool,
}


def _items(value, what: str) -> list:
    if type(value) is not list:
        raise ArtifactError(f"{what} {value!r} is not a list")
    return value


def _ints(row, n: int | None, what: str) -> tuple[int, ...]:
    """*row* as a tuple, if it is a list of *n* (None: any number of) ints."""
    if (
        type(row) is not list
        or n not in (None, len(row))
        or any(type(x) is not int for x in row)
    ):
        raise ArtifactError(f"{what} {row!r} is not a list of {n or 'any'} int(s)")
    return tuple(row)


def _route(row) -> tuple:
    if type(row) is not list or len(row) != 3 or type(row[0]) is not int:
        raise ArtifactError(f"route {row!r} is not [edge id, steps, tap]")
    edge, steps, tap = row
    return (
        edge,
        tuple(_ints(s, 3, "route step") for s in _items(steps, "route steps")),
        None if tap is None else _ints(tap, 3, "route tap"),
    )


def _capability_row(row) -> tuple:
    if type(row) is not list or len(row) != 2 or type(row[0]) is not str:
        raise ArtifactError(f"capability entry {row!r} is not [class, PE ids]")
    return (row[0], _ints(row[1], None, "capability PE ids"))
