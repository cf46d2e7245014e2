"""A content-addressed LRU result cache for the batch runtime.

Keys are :func:`repro.service.jobs.job_key` digests — SHA-256 over the
job's canonical payload — so semantically identical requests (attribute
order, dependency order, row order all normalized away) share one entry.
Values are the runner's JSON-safe result dicts, which makes the cache
trivially persistable: :meth:`ResultCache.save` / :meth:`ResultCache.load`
round-trip through a plain JSON file so a later ``batch`` process can
start warm.

Eviction is LRU over a bounded entry count; hits refresh recency.  All
operations take the internal lock, so one cache can back a thread pool.

Persistence is hardened against the failure modes a long-running service
actually meets:

- **atomic save** — the file is written to a tempfile in the same
  directory and ``os.replace``d into place, so a crash mid-save leaves
  the previous cache intact, never a truncated one;
- **per-entry checksums** — every saved entry carries a SHA-256 digest
  of its value; entries whose digest no longer matches are skipped (and
  counted) at load instead of resurfacing silently corrupted results;
- **corrupt-file recovery** — a file that fails to parse (truncation,
  garbage) is *quarantined* to ``<path>.corrupt`` and the cache starts
  fresh: a damaged cache costs recomputation, never a traceback or a
  wrong answer.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
import threading
from collections import OrderedDict
from typing import Any, Optional

from repro.service.errors import CacheCorruptError
from repro.service.metrics import METRICS
from repro.service.trace import TRACER

_MISSING = object()

logger = logging.getLogger(__name__)


def entry_checksum(value: Any) -> str:
    """The persistence checksum of a cached value (canonical JSON)."""
    blob = json.dumps(
        value, sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


class ResultCache:
    """A bounded LRU mapping ``job_key -> result dict`` with hit/miss stats."""

    def __init__(self, maxsize: int = 1024):
        if maxsize <= 0:
            raise ValueError("cache maxsize must be positive")
        self.maxsize = maxsize
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        #: Set by :meth:`load` when the source file had to be quarantined.
        self.recovered_from: Optional[str] = None
        #: Entries dropped by :meth:`load` for failing their checksum.
        self.corrupt_entries = 0

    def get(self, key: str, default: Any = None) -> Any:
        """The cached value for *key* (recency-refreshing), else *default*."""
        with TRACER.span("cache.get", key=key[:16]) as span:
            with self._lock:
                value = self._entries.get(key, _MISSING)
                if value is _MISSING:
                    self._misses += 1
                    span.set(hit=False)
                    return default
                self._entries.move_to_end(key)
                self._hits += 1
            span.set(hit=True)
            return value

    def put(self, key: str, value: Any) -> None:
        """Insert or refresh *key*; evicts the least recent beyond maxsize."""
        with TRACER.span("cache.put", key=key[:16]):
            with self._lock:
                self._entries[key] = value
                self._entries.move_to_end(key)
                while len(self._entries) > self.maxsize:
                    self._entries.popitem(last=False)
                    self._evictions += 1

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        """Hit/miss/eviction counters plus the current hit rate."""
        with self._lock:
            lookups = self._hits + self._misses
            return {
                "entries": len(self._entries),
                "maxsize": self.maxsize,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "hit_rate": (self._hits / lookups) if lookups else 0.0,
            }

    def reset_stats(self) -> None:
        """Zero the counters without touching the entries."""
        with self._lock:
            self._hits = self._misses = self._evictions = 0

    # ------------------------------------------------------------------
    # persistence (JSON, because values are JSON-safe result dicts)
    # ------------------------------------------------------------------

    def save(self, path: str) -> None:
        """Atomically write the entries (in recency order, checksummed).

        Tempfile + ``os.replace`` in the target directory: a crash
        mid-save leaves the previous file untouched.
        """
        with self._lock:
            payload = {
                "maxsize": self.maxsize,
                "entries": [
                    [key, value, entry_checksum(value)]
                    for key, value in self._entries.items()
                ],
            }
        directory = os.path.dirname(os.path.abspath(path))
        fd, tmp = tempfile.mkstemp(
            prefix=".cache-", suffix=".tmp", dir=directory
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    @classmethod
    def load(cls, path: str, maxsize: Optional[int] = None) -> "ResultCache":
        """Rebuild a cache from :meth:`save` output (stats start at zero).

        A missing file raises ``FileNotFoundError`` (callers guard with
        ``os.path.exists``); an *unreadable* one — truncated JSON, wrong
        structure — is quarantined to
        ``<path>.corrupt`` and an empty cache is returned.  Individual
        entries failing their checksum are skipped and counted in
        ``corrupt_entries``; legacy two-element entries (saved before
        checksums existed) load unverified.
        """
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            if not isinstance(payload, dict) or not isinstance(
                payload.get("entries", []), list
            ):
                raise CacheCorruptError(
                    f"cache file {path}: not a cache payload"
                )
        except FileNotFoundError:
            raise
        except (
            json.JSONDecodeError,
            CacheCorruptError,
            UnicodeDecodeError,
        ) as exc:
            quarantine = path + ".corrupt"
            os.replace(path, quarantine)
            logger.warning(
                "corrupt result cache %s quarantined to %s (%s); "
                "starting fresh",
                path,
                quarantine,
                exc,
            )
            METRICS.inc("cache.recoveries")
            cache = cls(maxsize=maxsize or 1024)
            cache.recovered_from = quarantine
            return cache

        cache = cls(maxsize=maxsize or payload.get("maxsize", 1024))
        for item in payload.get("entries", []):
            if not isinstance(item, (list, tuple)) or len(item) not in (2, 3):
                cache.corrupt_entries += 1
                continue
            if len(item) == 3:
                key, value, checksum = item
                if entry_checksum(value) != checksum:
                    cache.corrupt_entries += 1
                    continue
            else:  # legacy pre-checksum format
                key, value = item
            cache.put(key, value)
        if cache.corrupt_entries:
            logger.warning(
                "result cache %s: dropped %d entr%s with bad checksums",
                path,
                cache.corrupt_entries,
                "y" if cache.corrupt_entries == 1 else "ies",
            )
            METRICS.inc("cache.corrupt_entries", cache.corrupt_entries)
        return cache
