"""``python -m repro.serve`` — run the compile service.

Example::

    python -m repro.serve --port 8741 --workers 4 --slots 4
    curl -s localhost:8741/healthz
    curl -s -XPOST localhost:8741/compile -d '{"kernel": "sor", "size": 4, "page_size": 4}'

SIGTERM stops the server like Ctrl-C does: the listening socket closes,
running compiles finish, the worker pool is shut down, and the process
exits 0.

The server speaks plain HTTP; TLS is terminated by a proxy in front of it.
"""

from __future__ import annotations

import argparse
import signal
import sys

# Before the first asyncio import: asyncio guards each ``import ssl`` with
# ``except ImportError``, and this server never opens a TLS connection, so
# a None entry keeps OpenSSL (``_ssl``, libssl, libcrypto: ~4.4 MiB
# resident) out of the process.  setdefault: a process that has already
# loaded ``ssl`` (a test run, through urllib) keeps it; any other importer
# of this module gives TLS up for the rest of its life.
sys.modules.setdefault("ssl", None)

import asyncio  # noqa: E402 - after the ssl entry above

from repro.pipeline.store import ArtifactStore  # noqa: E402
from repro.serve.server import serve_forever  # noqa: E402
from repro.serve.service import ServiceConfig  # noqa: E402


async def _serve(config: ServiceConfig, host: str, port: int) -> None:
    """``serve_forever`` with SIGTERM cancelling it, so that leaving its
    ``async with`` closes the server, the service and the worker pool."""
    asyncio.get_running_loop().add_signal_handler(
        signal.SIGTERM, asyncio.current_task().cancel
    )
    await serve_forever(config, host=host, port=port)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Async multi-tenant compile-as-a-service front door.",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8741)
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="compile worker processes (>= 2: each miss is a whole job in "
        "one of a warm pool of spawned processes; 1: on a slot thread, "
        "sharing probe outcomes between misses).  A cancelled compile "
        "runs to its end either way, its result discarded",
    )
    p.add_argument(
        "--slots",
        type=int,
        default=2,
        help="concurrent compile slots (fair-scheduler dispatch width)",
    )
    p.add_argument(
        "--store",
        default=None,
        help="artifact store root (default: $REPRO_CACHE_DIR/.repro_artifacts)",
    )
    args = p.parse_args(argv)
    if not 0 <= args.port <= 65535:
        p.error(f"--port must be in 0..65535, got {args.port}")
    try:
        config = ServiceConfig(
            store_root=args.store, workers=args.workers, slots=args.slots
        )
    except ValueError as exc:
        p.error(str(exc))
    # a store root that is a file, or that cannot be created, would fail
    # (or store nothing) on every miss: refuse it before serving
    root = ArtifactStore(args.store).root
    try:
        root.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        p.error(f"--store {root} is not a usable directory: {exc}")
    try:
        asyncio.run(_serve(config, args.host, args.port))
    except (KeyboardInterrupt, asyncio.CancelledError):
        print("repro.serve: stopped, worker pool shut down")
    except OSError as exc:
        # the listening socket could not be bound; the service and its
        # worker pool are already closed (ServeServer.start)
        print(
            f"repro.serve: cannot listen on {args.host}:{args.port}: {exc}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
