"""Canonical structural fingerprints.

The compilation pipeline (:mod:`repro.pipeline`) content-addresses compiled
artifacts by the fingerprints of the DFG, the architecture, and the mapper
configuration.  A fingerprint must therefore be *canonical*: the same
logical object always hashes to the same string, independent of object
identity, dict insertion order, or the Python process.  We get this by
hashing a JSON rendering with sorted keys and fixed separators.
"""

from __future__ import annotations

import json

# SHA-256 from the interpreter's built-in module, not from ``hashlib``:
# importing ``hashlib`` loads ``_hashlib``, which maps OpenSSL's libcrypto
# (+3.4 MiB resident) into every process that compiles or audits, and
# SHA-256 is the only hash this package needs.  The digests are the same.
try:  # CPython >= 3.12
    from _sha2 import sha256
except ImportError:
    try:  # CPython 3.10 and 3.11
        from _sha256 import sha256
    except ImportError:  # an interpreter built without the built-in module
        from hashlib import sha256

__all__ = ["canonical_json", "canonical_fingerprint", "sha256", "FINGERPRINT_LENGTH"]

#: Hex digits kept from the sha256 digest.  64 bits — collisions across the
#: handful of thousands of artifacts a repository ever holds are negligible,
#: and the short form keeps keys readable in logs and filenames.
FINGERPRINT_LENGTH = 16


def canonical_json(payload) -> str:
    """Deterministic JSON rendering of *payload* (sorted keys, no spaces)."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )


def canonical_fingerprint(payload) -> str:
    """Stable hex digest of a JSON-able *payload*."""
    blob = canonical_json(payload).encode("utf-8")
    return sha256(blob).hexdigest()[:FINGERPRINT_LENGTH]
