"""The asyncio HTTP/JSON front end over :class:`CompileService`.

Routes (all bodies JSON):

* ``POST /compile`` — a :class:`~repro.serve.protocol.CompileRequest`
  body.  Success returns **the raw artifact JSON exactly as stored**
  (byte-identical to the offline ``compile_many`` store file) with the
  serving metadata in ``X-Repro-*`` headers; failures return a structured
  JSON error with a per-request status (400 malformed, 404 unknown
  kernel, 409 cancelled, 422 unmappable, 500 anything else).
* ``POST /cancel`` — ``{"request_id": ...}``; answers that waiter 409 at
  once and returns ``{"cancelled": true}`` (``false`` for an id not in
  flight).  Its compile is dropped only when its last waiter is gone, and
  then only if still queued; a running one ends with its result unstored.
* ``GET /stats`` — the service's counters as JSON: the key and probe
  memos, and the flight table read two ways (``memo``: the flights that
  resolved with a body; ``singleflight``: the ones still pending), the
  scheduler and the store.
* ``GET /healthz`` — liveness.

Connections are keep-alive; one request is served at a time per
connection (pipelining is not supported), but any number of connections
are served concurrently on the event loop.  ``close()`` stops accepting,
lets every in-flight response finish and closes every idle connection.
"""

from __future__ import annotations

import asyncio
import logging

from repro.serve.protocol import (
    CompileRequest,
    ProtocolError,
    ServeResult,
    json_response,
    http_response,
    read_http_request,
)
from repro.serve.service import CompileService, ServiceConfig
from repro.util.errors import WorkloadError

__all__ = ["ServeServer", "serve_forever"]

logger = logging.getLogger(__name__)

#: error name -> HTTP status for per-request failures
_ERROR_STATUS = {
    "ProtocolError": 400,
    "DuplicateRequest": 400,
    "WorkloadError": 404,  # unknown kernel
    "RequestCancelled": 409,
    "MappingError": 422,
    "LadderExhausted": 422,  # the baseline ladder itself found nothing
    "ArchitectureError": 422,
}


class ServeServer:
    """One listening socket bound to one :class:`CompileService`."""

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        service: CompileService | None = None,
    ) -> None:
        self.service = service if service is not None else CompileService(config)
        self.host = host
        self.port = port
        self._server: asyncio.Server | None = None
        self._handlers: set[asyncio.Task] = set()
        self._idle: set[asyncio.StreamWriter] = set()  # awaiting a request
        self._closing = False

    async def start(self) -> "ServeServer":
        await self.service.start()
        try:
            self._server = await asyncio.start_server(
                self._handle_connection, self.host, self.port
            )
        except BaseException:
            # `async with` never reaches __aexit__ when this raises
            await self.service.close()
            raise
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def close(self) -> None:
        if self._server is not None:
            self._closing = True
            self._server.close()
            for writer in self._idle:
                writer.close()  # its handler reads EOF and returns
            await asyncio.gather(*self._handlers, return_exceptions=True)
            await self._server.wait_closed()
            self._server = None
        await self.service.close()

    async def __aenter__(self) -> "ServeServer":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- connection handling --------------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        handler = asyncio.current_task()
        self._handlers.add(handler)
        try:
            while not self._closing:
                self._idle.add(writer)
                try:
                    request = await read_http_request(reader)
                except (ProtocolError, ValueError, asyncio.IncompleteReadError) as exc:
                    writer.write(
                        json_response(400, {"error": "ProtocolError", "message": str(exc)})
                    )
                    await writer.drain()
                    break
                finally:
                    self._idle.discard(writer)
                if request is None:
                    break
                response = await self._dispatch(request)
                writer.write(response)
                await writer.drain()
                if request.headers.get("connection", "").lower() == "close":
                    break
        except (ConnectionError, BrokenPipeError):  # pragma: no cover - client gone
            pass
        finally:
            self._handlers.discard(handler)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):  # pragma: no cover
                pass

    async def _dispatch(self, request) -> bytes:
        route = (request.method, request.path)
        try:
            if route == ("POST", "/compile"):
                return await self._handle_compile(request.json())
            if route == ("POST", "/cancel"):
                return await self._handle_cancel(request.json())
            if route == ("GET", "/stats"):
                return json_response(200, self.service.stats())
            if route == ("GET", "/healthz"):
                return json_response(200, {"ok": True})
        except ProtocolError as exc:
            return json_response(400, {"error": "ProtocolError", "message": str(exc)})
        except Exception as exc:  # noqa: BLE001 - last-resort per-request 500
            logger.exception("unhandled error serving %s %s", *route)
            return json_response(
                500, {"error": type(exc).__name__, "message": str(exc)}
            )
        if request.path in ("/compile", "/cancel", "/stats", "/healthz"):
            return json_response(
                405, {"error": "MethodNotAllowed", "message": request.method}
            )
        return json_response(404, {"error": "NotFound", "message": request.path})

    # -- handlers -------------------------------------------------------------------

    async def _submit(self, payload: dict) -> ServeResult:
        request = CompileRequest.from_dict(payload)
        try:
            return await self.service.submit(request)
        except WorkloadError as exc:
            return ServeResult(
                request_id=request.request_id or "?",
                error="WorkloadError",
                message=str(exc),
            )

    async def _handle_compile(self, payload: dict) -> bytes:
        result = await self._submit(payload)
        if result.ok:
            return http_response(
                200,
                result.body,
                headers={
                    "X-Repro-Request-Id": result.request_id,
                    "X-Repro-Digest": result.digest or "",
                    "X-Repro-Source": result.source or "",
                    "X-Repro-Seconds": f"{result.seconds:.4f}",
                },
            )
        status = _ERROR_STATUS.get(result.error, 500)
        return json_response(status, result.meta())

    async def _handle_cancel(self, payload) -> bytes:
        if not isinstance(payload, dict):
            raise ProtocolError(
                f"request body must be a JSON object, got {type(payload).__name__}"
            )
        rid = payload.get("request_id")
        if not isinstance(rid, str) or not rid:
            raise ProtocolError("'request_id' is required")
        cancelled = await self.service.cancel(rid)
        return json_response(200, {"request_id": rid, "cancelled": cancelled})


async def serve_forever(
    config: ServiceConfig | None = None, *, host: str = "127.0.0.1", port: int = 8741
) -> None:
    """Run the server until cancelled (the ``python -m repro.serve`` body)."""
    async with ServeServer(config, host=host, port=port) as server:
        print(f"repro.serve listening on {server.address}")
        print(
            f"  workers={server.service.config.workers} "
            f"slots={server.service.config.slots} "
            f"store={server.service.store.root}"
        )
        await asyncio.Event().wait()
