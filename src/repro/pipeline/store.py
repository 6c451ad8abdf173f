"""Content-addressed, on-disk store of compilation artifacts.

One artifact per file, addressed purely by content fingerprints —
``sha256(dfg_fp / arch_fp / mapper_fp)`` — so a cache entry can never be
stale: any change to the kernel's DFG, the CGRA description, or the mapper
tuning changes the address, and the old entry is simply never looked up
again.  There is no schema-version-keyed invalidation dance to forget
(bumping :data:`~repro.pipeline.artifact.ARTIFACT_VERSION` suffices when
the artifact encoding itself changes).

Writes are atomic (temp file + ``os.replace``), so a crashed or concurrent
compile can never leave a half-written artifact behind.  Temp names embed
pid, thread id and a per-store sequence number, so two threads persisting
the same key in one process never share a ``.tmp`` path (a pid-only name
would let one thread ``os.replace`` the other's half-written file).  Reads
are corruption-tolerant: an unreadable or mismatched file is *logged* as a
warning — never silently swallowed — and treated as a miss.

The store counts hits, misses, writes and mapper seconds, which is how the
bench CLI reports cache effectiveness (a warm ``python -m repro.bench``
run shows zero misses — zero mapper invocations).  The counters are
guarded by a per-store lock, so concurrent service handlers never lose
increments.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import logging
import os
import re
import threading
from pathlib import Path

from repro.pipeline.artifact import CompiledKernel, ArtifactKey
from repro.util.errors import ArtifactError
from repro.util.spans import span

__all__ = ["ArtifactStore", "STORE_DIRNAME"]

logger = logging.getLogger(__name__)

#: Default store directory, created under ``$REPRO_CACHE_DIR`` (or ".").
STORE_DIRNAME = ".repro_artifacts"

#: Shape of an artifact path relative to the store root, as
#: :meth:`ArtifactStore.path_for` builds it: a two-hex-digit shard
#: directory, then ``<sha256>.json``.
ARTIFACT_NAME_RE = re.compile(r"^[0-9a-f]{2}/[0-9a-f]{64}\.json$")


class ArtifactStore:
    """Filesystem store of :class:`CompiledKernel` artifacts."""

    def __init__(self, root: Path | str | None = None) -> None:
        if root is None:
            base = os.environ.get("REPRO_CACHE_DIR", ".")
            root = Path(base) / STORE_DIRNAME
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.compile_seconds = 0.0
        #: Guards the counters above: handlers on concurrent service
        #: threads increment through it so no update is ever lost.
        self._lock = threading.Lock()
        #: Per-store temp-name sequence; pid + thread id + this counter
        #: make every in-flight ``put`` temp path unique.
        self._tmp_seq = itertools.count()

    # -- addressing -----------------------------------------------------------------

    def path_for(self, key: ArtifactKey) -> Path:
        digest = key.digest
        return self.root / digest[:2] / f"{digest}.json"

    def walk(self):
        """Yield ``(path, is_artifact)`` for every file under the store.

        The scan is explicitly sorted at each directory level, so iteration
        order is a pure function of store content — never of readdir order.
        ``is_artifact`` is True when the path has the sharded
        content-addressed shape (``ab/<sha256>.json``); anything else is a
        foreign file the store tolerates (and the auditor reports).
        """
        if not self.root.is_dir():
            return
        for child in sorted(self.root.rglob("*")):
            if child.is_file():
                rel = child.relative_to(self.root).as_posix()
                yield child, ARTIFACT_NAME_RE.match(rel) is not None

    # -- access ---------------------------------------------------------------------

    @span("pipeline.store_get")
    def get(self, key: ArtifactKey, *, raw: bool = False):
        """The stored artifact for *key*, or None (counted as a miss).
        With *raw*, ``(artifact, bytes)``: the file is read once, and the
        bytes are the ones the artifact was validated from — what a server
        sends, whatever another process does to the file meanwhile.

        Unreadable files — corrupt JSON, a malformed field, foreign schema
        versions, content that does not match its address — are reported via
        ``logging.warning`` and treated as misses; the next ``put``
        overwrites them.
        """
        path = self.path_for(key)
        try:
            data = path.read_bytes()
            parsed = json.loads(data)
        except FileNotFoundError:
            self._count_miss()
            return None
        except (OSError, ValueError) as exc:  # ValueError: bad JSON, bad UTF-8
            logger.warning("discarding unreadable artifact %s: %s", path, exc)
            self._count_miss()
            return None
        try:
            artifact = CompiledKernel.from_json_dict(parsed)
        except ArtifactError as exc:
            logger.warning("discarding incompatible artifact %s: %s", path, exc)
            self._count_miss()
            return None
        if artifact.key != key:
            logger.warning(
                "artifact %s does not match its address (have %s, want %s)",
                path,
                artifact.key,
                key,
            )
            self._count_miss()
            return None
        with self._lock:
            self.hits += 1
        return (artifact, data) if raw else artifact

    @span("pipeline.store_put")
    def put(self, artifact: CompiledKernel) -> Path | None:
        """Persist *artifact* atomically; best-effort but never silent."""
        path = self.path_for(artifact.key)
        with self._lock:
            seq = next(self._tmp_seq)
        tmp = path.with_name(
            f"{path.name}.{os.getpid()}.{threading.get_ident()}.{seq}.tmp"  # repro: allow[DET-WALL-CLOCK] pid/tid/seq only name the temp file for atomic replace; never reach artifact bytes
        )
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_text(artifact.to_json())
            os.replace(tmp, path)
        except OSError as exc:
            logger.warning("could not persist artifact %s: %s", path, exc)
            # best effort: under a root that is a file, the unlink fails too
            with contextlib.suppress(OSError):
                tmp.unlink(missing_ok=True)
            return None
        with self._lock:
            self.puts += 1
        return path

    # -- accounting -----------------------------------------------------------------

    def _count_miss(self) -> None:
        with self._lock:
            self.misses += 1

    def note_compile_time(self, seconds: float) -> None:
        with self._lock:
            self.compile_seconds += seconds

    def stats(self) -> dict:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "puts": self.puts,
                "compile_seconds": round(self.compile_seconds, 3),
            }

    def describe(self) -> str:
        stats = self.stats()
        return (
            f"artifact cache ({self.root}): {stats['hits']} hit(s), "
            f"{stats['misses']} miss(es), {stats['puts']} write(s), "
            f"{stats['compile_seconds']:.1f}s compiling"
        )
