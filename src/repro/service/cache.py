"""A content-addressed, journaled LRU result cache for the batch runtime.

Keys are :func:`repro.service.jobs.job_key` digests — SHA-256 over the
job's canonical payload — so semantically identical requests (attribute
order, dependency order, row order all normalized away) share one entry.
Values are the runner's JSON-safe result dicts.

Eviction is LRU over a bounded entry count; hits refresh recency.  All
operations take the internal lock, so one cache can back a thread pool.

The cache is the runtime's one store of finished results.  Its file is
JSONL: a header line ``{"maxsize": N}`` and then one
``[key, value, checksum]`` line per entry.

- **journal** — a cache returned by :meth:`ResultCache.load` appends one
  line per later :meth:`~ResultCache.put`, flushed and fsynced, so a
  process killed mid-batch loses at most the job in flight.  The
  kernels are deterministic, so rerunning the same batch against the
  same file resumes it: every journaled job is an ordinary cache hit;
- **atomic compaction** — :meth:`ResultCache.save` rewrites the file in
  recency order through a tempfile in the same directory and
  ``os.replace``, so a crash mid-save leaves the previous file intact.
  A loaded file that is already compact (its header's ``maxsize``, no
  line that replay dropped or overrode) and took no ``put`` since is
  left as it is: a run that only reads writes nothing, so its hits do
  not move their entries up the file's recency order;
- **per-entry checksums** — each line carries a digest of its value's
  canonical JSON; a line that fails to decode (the torn tail a kill
  leaves) or fails its checksum is skipped and counted at load, the
  damaged file is *quarantined* to ``<path>.corrupt`` and the good
  entries are saved back: a damaged cache costs recomputation, never a
  traceback or a wrong answer.  :meth:`ResultCache.stats`, and so the
  batch report's ``cache`` object, says how many lines were dropped and
  where the damaged file went.
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

from repro.service.trace import TRACER

_MISSING = object()

logger = logging.getLogger(__name__)


def _canonical(value: Any) -> str:
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), default=str
    )


def _digest(blob: str) -> str:
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def entry_checksum(value: Any) -> str:
    """The persistence checksum of a cached value (canonical JSON)."""
    return _digest(_canonical(value))


def _line(key: str, blob: str) -> str:
    """The journal line of an entry whose value's canonical JSON is
    *blob*."""
    return f"[{json.dumps(key)},{blob},\"{_digest(blob)}\"]\n"


def _header(maxsize: int) -> str:
    return json.dumps({"maxsize": maxsize}) + "\n"


class ResultCache:
    """A bounded LRU mapping ``job_key -> result dict``; :meth:`stats`
    reports its hits, misses and evictions and what :meth:`load`
    quarantined."""

    def __init__(self, maxsize: int = 1024):
        if maxsize <= 0:
            raise ValueError("cache maxsize must be positive")
        self.maxsize = maxsize
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        # The file :meth:`put` appends to (set by :meth:`load`).
        self._journal_path: Optional[str] = None
        # Is that file compact: one line per entry, none since replaced?
        self._compact = False
        #: Set by :meth:`load` when the source file had to be quarantined.
        self.recovered_from: Optional[str] = None
        #: Lines dropped by :meth:`load` (undecodable or bad checksum).
        self.corrupt_entries = 0

    def get(self, key: str) -> Any:
        """The cached value for *key* (recency-refreshing), else None."""
        with TRACER.span("cache.get", key=key[:16]) as span:
            with self._lock:
                value = self._entries.get(key, _MISSING)
                if value is _MISSING:
                    self._misses += 1
                    span.set(hit=False)
                    return None
                self._entries.move_to_end(key)
                self._hits += 1
            span.set(hit=True)
            return value

    def put(self, key: str, value: Any) -> None:
        """Insert or refresh *key*; evicts the least recent beyond maxsize.

        A loaded cache also appends the entry to its file (flushed and
        fsynced) before returning.  An append that fails stops the
        journal with a warning: the result itself is still good.
        """
        with TRACER.span("cache.put", key=key[:16]):
            with self._lock:
                self._compact = False
                if self._journal_path is not None:
                    try:
                        self._append(_line(key, _canonical(value)))
                    except OSError as exc:
                        logger.warning(
                            "result cache %s: journal stopped (%s)",
                            self._journal_path,
                            exc,
                        )
                        self._journal_path = None
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
        """Hit/miss/eviction counters, the current hit rate, and what
        :meth:`load` quarantined: ``corrupt_entries`` lines dropped, the
        damaged file moved to ``recovered_from`` (None if none was)."""
        with self._lock:
            lookups = self._hits + self._misses
            return {
                "entries": len(self._entries),
                "maxsize": self.maxsize,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "hit_rate": (self._hits / lookups) if lookups else 0.0,
                "corrupt_entries": self.corrupt_entries,
                "recovered_from": self.recovered_from,
            }

    # ------------------------------------------------------------------
    # persistence (JSONL, because values are JSON-safe result dicts)
    # ------------------------------------------------------------------

    def _append(self, line: str) -> None:
        """Durably append one journal line (caller holds the lock).

        The file is opened per append, so no handle outlives the call
        and each append reaches whatever file :meth:`save` last put at
        the path.
        """
        with open(self._journal_path, "a", encoding="utf-8") as handle:
            if handle.tell() == 0:
                line = _header(self.maxsize) + line
            handle.write(line)
            handle.flush()
            os.fsync(handle.fileno())

    def save(self, path: str) -> None:
        """Atomically write the entries (in recency order, checksummed).

        Tempfile + ``os.replace`` in the target directory: a crash
        mid-save leaves the previous file untouched.  The lock is held
        throughout, so no journal append lands in the file being
        replaced.  Saving a loaded cache back to its own file is skipped
        while that file is compact and no :meth:`put` came since.
        """
        with self._lock:
            if path == self._journal_path and self._compact:
                return
            lines = [_header(self.maxsize)] + [
                _line(key, _canonical(value))
                for key, value in self._entries.items()
            ]
            directory = os.path.dirname(os.path.abspath(path))
            fd, tmp = tempfile.mkstemp(
                prefix=".cache-", suffix=".tmp", dir=directory
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    handle.write("".join(lines))
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp, path)
                if path == self._journal_path:
                    self._compact = True
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise

    @classmethod
    def load(cls, path: str, maxsize: Optional[int] = None) -> "ResultCache":
        """Replay the file at *path* into a cache that journals to it.

        Lines fill the cache in file order: a later line for a key
        overrides an earlier one, and past *maxsize* the most recent
        entries are kept.  Stats start at zero.  *maxsize* overrides the
        header's.
        A missing file gives an empty cache; nothing is written until
        the first :meth:`put`.  A line that fails to decode or fails its
        checksum is skipped and counted in ``corrupt_entries``; if any
        was, the file is moved to ``<path>.corrupt`` (``recovered_from``)
        and the good entries are saved back to *path*.
        """
        try:
            with open(path, "rb") as handle:
                raw_lines = handle.read().splitlines()
        except FileNotFoundError:
            raw_lines = []
        records = []
        corrupt = 0
        header = None  # the header's maxsize
        for number, raw in enumerate(raw_lines):
            try:
                record = json.loads(raw)
            except ValueError:
                corrupt += 1
                continue
            if number == 0 and _is_header(record):
                header = record["maxsize"]
                maxsize = maxsize or header
            elif (
                isinstance(record, list)
                and len(record) == 3
                and isinstance(record[0], str)
                and entry_checksum(record[1]) == record[2]
            ):
                records.append(record)
            else:
                corrupt += 1

        cache = cls(maxsize=maxsize or 1024)
        entries = cache._entries
        for key, value, _ in records:
            entries[key] = value
            entries.move_to_end(key)
        while len(entries) > cache.maxsize:
            entries.popitem(last=False)
        # Every line replayed into an entry of its own, none evicted.
        cache._compact = (
            header == cache.maxsize and not corrupt and len(cache) == len(records)
        )
        cache._journal_path = path
        if corrupt:
            cache.corrupt_entries = corrupt
            cache.recovered_from = path + ".corrupt"
            os.replace(path, cache.recovered_from)
            cache.save(path)
            logger.warning(
                "result cache %s: dropped %d damaged line%s; "
                "quarantined to %s",
                path,
                corrupt,
                "" if corrupt == 1 else "s",
                cache.recovered_from,
            )
        return cache


def _is_header(record: Any) -> bool:
    return (
        isinstance(record, dict)
        and record.keys() == {"maxsize"}
        and type(record["maxsize"]) is int
        and record["maxsize"] > 0
    )
