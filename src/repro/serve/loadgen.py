"""Minimal async HTTP client for the service.

:class:`ServeClient` speaks the real wire protocol over a real socket (no
in-process shortcut), so a test that drives the server through it
exercises framing, loop scheduling and thread handoff the way a tenant
would.  It generates no load and measures nothing: request schedules,
latency percentiles and the byte-parity check of a load run live in
``perf/`` (``perf/client.py``, ``perf/wl_serve.py``).
"""

from __future__ import annotations

import asyncio
import json

from repro.serve.protocol import ProtocolError

__all__ = ["ServeClient"]


class ServeClient:
    """One keep-alive HTTP/1.1 connection to the serve front door."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader = None
        self._writer = None

    async def connect(self) -> "ServeClient":
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )
        return self

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, BrokenPipeError):  # pragma: no cover
                pass
            self._writer = None
            self._reader = None

    async def __aenter__(self) -> "ServeClient":
        return await self.connect()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    async def request(
        self, method: str, path: str, payload: dict | None = None
    ) -> tuple[int, dict[str, str], bytes]:
        """Issue one request; returns (status, headers, body)."""
        body = (
            json.dumps(payload, sort_keys=True).encode("utf-8")
            if payload is not None
            else b""
        )
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"\r\n"
        ).encode("ascii")
        self._writer.write(head + body)
        await self._writer.drain()
        status_line = await self._reader.readline()
        if not status_line:
            raise ProtocolError("server closed the connection")
        parts = status_line.decode("ascii").split(None, 2)
        status = int(parts[1])
        headers: dict[str, str] = {}
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _sep, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        resp_body = await self._reader.readexactly(length) if length else b""
        return status, headers, resp_body

    async def compile(self, payload: dict) -> tuple[int, dict[str, str], bytes]:
        return await self.request("POST", "/compile", payload)
