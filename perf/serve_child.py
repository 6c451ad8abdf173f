"""The traced server child: install the span wrappers, then run the public
``serve_forever`` exactly as ``python -m repro.serve`` does, and write the
spans out on SIGTERM.  Used only by ``--trace`` runs of ``serve_*``."""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perf import layers  # noqa: E402 - needs the path set above
from perf.spans import Tracer, dump_spans  # noqa: E402


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--trace-out", required=True)
    p.add_argument("--port", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--slots", type=int, default=2)
    p.add_argument("--store", required=True)
    args = p.parse_args(argv)

    tracer = Tracer()
    layers.install(tracer)
    from repro.serve.server import serve_forever
    from repro.serve.service import ServiceConfig

    config = ServiceConfig(store_root=args.store, workers=args.workers, slots=args.slots)

    async def serve() -> None:
        asyncio.get_running_loop().add_signal_handler(
            signal.SIGTERM, asyncio.current_task().cancel
        )
        await serve_forever(config, port=args.port)

    try:
        asyncio.run(serve())
    except (asyncio.CancelledError, KeyboardInterrupt):
        pass
    finally:
        dump_spans(tracer.spans, args.trace_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
