"""Compile-as-a-service: an async multi-tenant front door for the pipeline.

The paper's premise is many applications dynamically sharing one CGRA
under a PageMaster; this package is the system analogue — many tenants
dynamically sharing one *compiler*.  A long-running asyncio service
accepts (kernel, arch preset, mapper config) requests over HTTP/JSON,
resolves each to its content address
(:func:`repro.pipeline.compile.job_key`), and serves the artifact bytes:

* **One flight per digest** (:mod:`repro.serve.service`) — concurrent
  identical requests coalesce onto one in-flight compile, keyed by the
  :class:`~repro.pipeline.artifact.ArtifactKey` digest, so N duplicate
  requests cost exactly one mapper invocation; a flight that served bytes
  stays in the same table as the digest's memo entry.
* **Fair scheduling** (:mod:`repro.serve.scheduler`) — cache misses
  dispatch through a weighted round-robin across tenants with per-request
  priorities, onto a bounded set of compile slots; a cancelled queued
  miss is dropped, a running one ends unstored.
* **Warm worker pool** (:mod:`repro.serve.service`) — at ``--workers N``
  (N >= 2) one long-lived pool of N spawned processes compiles whole jobs,
  one miss per process: the grain and the worker entry point of
  ``compile_many(workers=N)``, without a pool per batch.
* **Byte parity** — a served body is the bytes of an
  :class:`~repro.pipeline.store.ArtifactStore` file: the bytes a store
  probe validated, or a fresh compile's read-back.  When the store write
  fails, it is ``artifact.to_json()``, the bytes the write would have put
  there, and nothing is stored.  The service keeps them per digest (a
  digest has exactly one valid body) and answers later requests from them,
  so a served payload is byte-identical to the offline
  :func:`~repro.pipeline.compile.compile_many` output at any concurrency.

``python -m repro.serve`` runs the server (plain HTTP, no TLS).  The
package imports nothing itself: import the module you need, so the server
entry point decides what its process loads.  Throughput, latency
percentiles, coalesce rate and cache hit rate under load are measured by
``perf/`` (``serve_zipf``, ``serve_warm``, ``service_burst``), which also
checks served bytes against offline bytes on every run.
"""
