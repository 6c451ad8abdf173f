"""Randomness and string-hash hazards.

All stochastic pieces of the library are required to build their generators
through :mod:`repro.util.rng` with an explicit seed; any use of the global
stdlib RNG, numpy's legacy global RNG, or an entropy-seeded generator is a
reproducibility bug by construction.  ``hash()`` is flagged because it
leaks the per-process string-hash salt into anything that sorts or keys by
it: a simulator run ordered by it changes with ``PYTHONHASHSEED``, and no
runtime check compares two salts on that path (DESIGN.md §12).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import Rule, register
from repro.analysis.rules import resolve_call_target

#: numpy.random attributes that are part of the seeded Generator API and
#: therefore fine to reference.
_NUMPY_SEEDED_API = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }
)

#: Constructors from the seeded API that fall back to OS entropy when no
#: seed is passed — fine to *reference*, but a call must carry one.
_NUMPY_SEED_REQUIRED = frozenset(
    {"PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937", "SeedSequence"}
)

#: Files allowed to construct generators: the one seeding choke point.
EXEMPT_PATH_SUFFIXES = ("repro/util/rng.py",)


def _is_none(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _has_explicit_seed(node: ast.Call) -> bool:
    """True when the call passes a non-None seed, positionally or as the
    ``seed=``/``entropy=`` keyword (``SeedSequence`` spells it entropy)."""
    if node.args and not _is_none(node.args[0]):
        return True
    for kw in node.keywords:
        if kw.arg in ("seed", "entropy") and not _is_none(kw.value):
            return True
    return False


def _check_unseeded_rng(ctx) -> Iterator[Finding]:
    if str(ctx.path).replace("\\", "/").endswith(EXEMPT_PATH_SUFFIXES):
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        target = resolve_call_target(node.func, ctx.imports)
        if target is None:
            continue
        root, _, rest = target.partition(".")
        if root == "random":
            # stdlib: random.Random(seed) is explicit; everything else on
            # the module (including bare Random()) rides hidden state.
            if rest == "Random" and node.args:
                continue
            yield ctx.finding(
                RNG_SEED,
                node,
                f"call to stdlib RNG {target!r} uses global/hidden state",
            )
        elif target.startswith("numpy.random."):
            attr = target.rsplit(".", 1)[1]
            if attr == "default_rng" or attr in _NUMPY_SEED_REQUIRED:
                if not _has_explicit_seed(node):
                    yield ctx.finding(
                        RNG_SEED,
                        node,
                        f"numpy.random.{attr}() without a seed draws OS "
                        "entropy",
                    )
            elif attr not in _NUMPY_SEEDED_API:
                yield ctx.finding(
                    RNG_SEED,
                    node,
                    f"legacy numpy global RNG call {target!r}",
                )


def _check_hash_order(ctx) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "hash"
            and len(node.args) == 1
        ):
            yield ctx.finding(
                HASH_ORDER,
                node,
                "hash() of str/bytes is salted per process "
                "(PYTHONHASHSEED); values must not shape artifacts",
            )


RNG_SEED = register(
    Rule(
        id="DET-RNG-SEED",
        kind="lint",
        severity=Severity.ERROR,
        summary="unseeded or global-state RNG outside util/rng.py",
        fix_hint="take an explicit seed and build the generator with "
        "repro.util.rng.make_rng / derive_seed",
        checker=_check_unseeded_rng,
    )
)

HASH_ORDER = register(
    Rule(
        id="DET-HASH-ORDER",
        kind="lint",
        severity=Severity.ERROR,
        summary="builtin hash() (process-salted for str/bytes)",
        fix_hint="use repro.util.fingerprint.canonical_fingerprint or a "
        "stable explicit key",
        checker=_check_hash_order,
    )
)
