"""The one content-digest idiom shared by every fingerprint site.

Profiles, registry epochs, and query fingerprints (and the plan-cache
keys composed from them) must truncate and serialize identically, or
invalidation stops being consistent — so the idiom lives here once.
"""

from __future__ import annotations

import json

# ``hashlib`` maps OpenSSL — 3.4 MB resident, 8% of a serving process —
# to hash a few lines; the interpreter's own lean built-in does the
# same (``random`` imports its sha512 this way).
try:
    from _sha2 import sha256  # Python >= 3.12
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:  # pragma: no cover - a build without either
        from hashlib import sha256

#: Hex digits kept from the sha256 digest; 64 bits of content hash is
#: far beyond collision risk for the handful of profiles, registries,
#: and query templates a deployment distinguishes.
DIGEST_LENGTH = 16


def content_digest(payload: object) -> str:
    """Stable hex digest of *payload*'s canonical JSON rendering.

    ``sort_keys`` makes the digest independent of dict insertion and
    iteration order; payloads must be JSON-serializable.
    """
    rendered = json.dumps(payload, sort_keys=True)
    return sha256(rendered.encode()).hexdigest()[:DIGEST_LENGTH]
