"""Canonical digests of simulation outputs."""

from __future__ import annotations

import hashlib
import json
from typing import Any, Iterable


def canonical(obj: Any) -> str:
    """One JSON spelling per value: sorted keys, exact float repr."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj: Any) -> str:
    return hashlib.sha256(canonical(obj).encode()).hexdigest()


def records_digest(records: Iterable[dict]) -> str:
    """Digest of trial records in store order (one canonical line each)."""
    h = hashlib.sha256()
    for record in records:
        h.update(canonical(record).encode())
        h.update(b"\n")
    return h.hexdigest()
