"""Wire protocol of the compile service: requests, results, HTTP framing.

The service speaks plain HTTP/1.1 with JSON bodies (no third-party
dependencies — the framing below is a minimal, strict subset).

The one deliberate wire-format choice: a successful ``POST /compile``
response body is the **raw artifact JSON exactly as stored** — byte
identical to the :class:`~repro.pipeline.store.ArtifactStore` file and
therefore to offline :func:`~repro.pipeline.compile.compile_many` output —
with the serving metadata (cache source, request id, compile seconds) in
``X-Repro-*`` headers, never mixed into the payload.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

from repro.arch.presets import PRESET_SIZES
from repro.compiler.ems import BACKENDS
from repro.pipeline.compile import CompileJob

__all__ = [
    "ProtocolError",
    "CompileRequest",
    "ServeResult",
    "HttpRequest",
    "read_http_request",
    "http_response",
    "json_response",
]

#: Request body size cap (1 MiB): compile requests are a handful of small
#: fields; anything larger is a malformed or hostile client.
MAX_BODY_BYTES = 1 << 20

#: Request head caps: a request line and header lines beyond either is a
#: malformed or hostile client (a 400; the server then closes the connection).
MAX_HEADER_LINES = 100
MAX_HEAD_BYTES = 64 << 10

#: Grid sizes a request may name: key resolution builds the fabric before
#: anything else runs, and that costs time and memory growing with the
#: grid (0.7 s and 51 MiB at 256, 14 s and 686 MiB at 1024), so a size past
#: the largest preset is refused as malformed.  Below 2 is no fabric.  A
#: ``page_size`` past ``size * size`` fits no grid of that size.
MIN_SIZE, MAX_SIZE = 2, max(PRESET_SIZES)

#: ``Content-Length`` is ``1*DIGIT``: ``int()`` would also take ``+5``,
#: ``-0`` or ``1_0`` (as 10).
_LENGTH_RE = re.compile(r"[0-9]+")

#: ``tenant`` and ``request_id`` are echoed into response headers
#: (``X-Repro-Request-Id``; a server-assigned id embeds the tenant), so they
#: are held to header-safe printable ASCII: no CR/LF to inject a header line
#: with, nothing ``.encode("ascii")`` can fail on after the compile ran.
_TOKEN_RE = re.compile(r"[A-Za-z0-9._:/@-]{1,128}")


class ProtocolError(ValueError):
    """A malformed request (HTTP framing or request-field validation)."""


@dataclass(frozen=True)
class CompileRequest:
    """One tenant's compile request, validated off the wire.

    Mirrors :class:`~repro.pipeline.compile.CompileJob` plus the serving
    fields: ``tenant`` (fair-scheduling bucket), ``priority`` (higher
    dispatches first within a tenant) and ``request_id`` (cancellation
    handle; server-assigned when absent).
    """

    kernel: str
    size: int = 4
    page_size: int = 4
    seed: int = 0
    arch: str | None = None
    backend: str = "flat"
    tenant: str = "default"
    priority: int = 0
    request_id: str | None = None

    @classmethod
    def from_dict(cls, raw: dict) -> "CompileRequest":
        if not isinstance(raw, dict):
            raise ProtocolError(f"request body must be a JSON object, got {type(raw).__name__}")
        known = {f for f in cls.__dataclass_fields__}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ProtocolError(f"unknown request field(s): {', '.join(unknown)}")
        kernel = raw.get("kernel")
        if not isinstance(kernel, str) or not kernel:
            raise ProtocolError("'kernel' is required and must be a non-empty string")
        out = {"kernel": kernel}
        for name, typ in (
            ("size", int),
            ("page_size", int),
            ("seed", int),
            ("priority", int),
        ):
            if name in raw:
                value = raw[name]
                if not isinstance(value, int) or isinstance(value, bool):
                    raise ProtocolError(f"'{name}' must be an integer")
                out[name] = value
        for name in ("backend", "tenant", "arch", "request_id"):
            if name in raw and raw[name] is not None:
                value = raw[name]
                if not isinstance(value, str):
                    raise ProtocolError(f"'{name}' must be a string")
                out[name] = value
        req = cls(**out)
        if not MIN_SIZE <= req.size <= MAX_SIZE:
            raise ProtocolError(
                f"'size' must be in {MIN_SIZE}..{MAX_SIZE}, got {req.size}"
            )
        if not 1 <= req.page_size <= req.size * req.size:
            raise ProtocolError(
                f"'page_size' must be in 1..{req.size * req.size} at size "
                f"{req.size}, got {req.page_size}"
            )
        if req.seed < 0:
            raise ProtocolError(f"'seed' must be >= 0, got {req.seed}")
        if req.backend not in BACKENDS:
            raise ProtocolError(
                f"'backend' must be one of {BACKENDS}, got {req.backend!r}"
            )
        for name in ("tenant", "request_id"):
            value = getattr(req, name)
            if value is not None and not _TOKEN_RE.fullmatch(value):
                raise ProtocolError(
                    f"'{name}' must be 1-128 characters of [A-Za-z0-9._:/@-]"
                )
        return req

    def to_job(self) -> CompileJob:
        return CompileJob(
            kernel=self.kernel,
            size=self.size,
            page_size=self.page_size,
            seed=self.seed,
            arch=self.arch,
            backend=self.backend,
        )


@dataclass(frozen=True)
class ServeResult:
    """The service's answer to one compile request.

    ``source`` says how the bytes were obtained: ``"hit"`` (already in the
    store), ``"compiled"`` (this request led the compile), ``"coalesced"``
    (rode a sibling's in-flight compile).  ``seconds`` is the compile's
    own (its job's ``CompileStats.seconds``), 0.0 where none ran.  On
    failure ``body`` is None and ``error``/``message`` carry the
    structured per-request error.
    """

    request_id: str
    digest: str | None = None
    source: str | None = None
    body: bytes | None = None
    seconds: float = 0.0
    error: str | None = None
    message: str | None = None

    @property
    def ok(self) -> bool:
        return self.body is not None

    def meta(self) -> dict:
        out = {
            "request_id": self.request_id,
            "digest": self.digest,
            "source": self.source,
            "seconds": round(self.seconds, 4),
        }
        if not self.ok:
            out["error"] = self.error
            out["message"] = self.message
        return out


# ------------------------------------------------------------- HTTP framing


@dataclass(frozen=True)
class HttpRequest:
    method: str
    path: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self):
        """The decoded body.  ``ValueError`` covers a syntax error, bytes
        that are not UTF-8 and an integer past the interpreter's digit
        limit; ``RecursionError`` a body nested past the recursion limit."""
        try:
            return json.loads(self.body) if self.body else {}
        except (ValueError, RecursionError) as exc:
            raise ProtocolError(f"request body is not valid JSON: {exc}") from exc


async def read_http_request(reader) -> HttpRequest | None:
    """Parse one HTTP/1.1 request off *reader*; None on a clean EOF.  A head
    past :data:`MAX_HEADER_LINES` or :data:`MAX_HEAD_BYTES`, cut short by
    EOF, with a ``Transfer-Encoding`` or with two different
    ``Content-Length`` values is a :class:`ProtocolError`: the body's end is
    then unknown, so nothing after the head may be read as a request."""
    line = await reader.readline()
    if not line:
        return None
    try:
        method, path, _version = line.decode("ascii").split()
    except ValueError as exc:
        raise ProtocolError(f"malformed request line: {line!r}") from exc
    head_bytes, header_lines = len(line), 0
    headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n"):
            break
        if not line.endswith(b"\n"):
            raise ProtocolError("connection closed inside the request head")
        head_bytes += len(line)
        header_lines += 1
        if header_lines > MAX_HEADER_LINES or head_bytes > MAX_HEAD_BYTES:
            raise ProtocolError(
                f"request head exceeds {MAX_HEADER_LINES} header lines "
                f"or {MAX_HEAD_BYTES} bytes"
            )
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise ProtocolError(f"malformed header line: {line!r}")
        name, value = name.strip().lower(), value.strip()
        if name == "content-length" and headers.get(name, value) != value:
            raise ProtocolError("conflicting content-length headers")
        headers[name] = value
    if "transfer-encoding" in headers:
        raise ProtocolError("transfer-encoding is not supported: send content-length")
    value = headers.get("content-length", "0")
    if not _LENGTH_RE.fullmatch(value):
        raise ProtocolError(f"malformed content-length: {value!r}")
    length = int(value)
    if length > MAX_BODY_BYTES:
        raise ProtocolError(f"content-length {length} out of bounds")
    body = await reader.readexactly(length) if length else b""
    return HttpRequest(method=method.upper(), path=path, headers=headers, body=body)


_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    422: "Unprocessable Entity",
    500: "Internal Server Error",
}


def http_response(
    status: int,
    body: bytes,
    *,
    headers: dict[str, str] | None = None,
) -> bytes:
    """Serialize one HTTP/1.1 keep-alive JSON response."""
    lines = [
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        "Connection: keep-alive",
    ]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + body


def json_response(status: int, payload: dict) -> bytes:
    body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    return http_response(status, body)
