"""Content-addressed on-disk result cache.

Profiling a suite (Step B) is the pipeline's fixed cost: it depends only
on the codelet sources, the reference architecture and the measurer
configuration — never on K, the target set, or which other codelets are
in the suite.  Caching per-codelet profiling outcomes under a hash of
exactly those inputs makes K sweeps, re-runs and incremental suite edits
re-profile only what actually changed.

Entries are single pickle files named by their SHA-256 key, written
atomically (temp file + ``os.replace``) so a crashed or concurrent run
can never leave a half-written entry behind.  A corrupted or
foreign-format entry is counted in :attr:`CacheStats.errors`, evicted,
and treated as a miss — the caller recomputes; the cache never raises.

Each entry carries a SHA-256 checksum of its pickled payload, verified
on every read: an entry whose bytes rotted on disk (or were poisoned by
a fault plan — see :mod:`repro.runtime.faults`) is detected, counted in
:attr:`CacheStats.checksum_failures`, invalidated and recomputed, so a
bad cache can degrade a run's speed but never its results.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from dataclasses import dataclass
from typing import Any, Optional

from ..obs import Observation

#: Bumped whenever the entry layout (or the meaning of keys) changes;
#: old-format entries then read as corrupt and are recomputed.  v2
#: added the per-entry payload checksum.
CACHE_FORMAT = "repro-profile-cache-v2"


def content_key(material: str) -> str:
    """SHA-256 hex digest of canonical key material."""
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss accounting for one cache instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    errors: int = 0              # corrupted/unreadable entries evicted
    checksum_failures: int = 0   # entries whose payload bytes rotted

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"CacheStats(hits={self.hits}, misses={self.misses}, "
                f"stores={self.stores}, errors={self.errors}, "
                f"checksum_failures={self.checksum_failures})")


class DiskCache:
    """A pickle-per-entry store addressed by content hash."""

    def __init__(self, root: str, obs: Optional[Observation] = None):
        self.root = str(root)
        self.stats = CacheStats()
        #: Observability sink mirroring ``stats`` into the run's
        #: metrics registry (``cache.*`` counters).
        self.obs = obs if obs is not None else Observation()
        os.makedirs(self.root, exist_ok=True)

    def _count(self, name: str, amount: int = 1) -> None:
        self.obs.metrics.counter(f"cache.{name}").inc(amount)

    # -- layout ---------------------------------------------------------------

    def _path(self, digest: str) -> str:
        # Two-level fan-out keeps directories small on big suites.
        return os.path.join(self.root, digest[:2], digest + ".pkl")

    # -- operations -----------------------------------------------------------

    def get(self, digest: str) -> Optional[Any]:
        """The payload stored under ``digest``, or ``None`` on miss.

        Unreadable entries — truncated pickles, foreign formats, stale
        class layouts — are evicted and reported as misses.
        """
        path = self._path(digest)
        try:
            with open(path, "rb") as fh:
                wrapper = pickle.load(fh)
        except FileNotFoundError:
            self.stats.misses += 1
            self._count("misses")
            return None
        except Exception:
            # Any unpickling failure means the entry is unusable;
            # recomputing is always safe, so never propagate.
            self._invalidate(path)
            return None
        if (not isinstance(wrapper, dict)
                or wrapper.get("format") != CACHE_FORMAT
                or not isinstance(wrapper.get("payload"), bytes)
                or "sha256" not in wrapper):
            self._invalidate(path)
            return None
        blob = wrapper["payload"]
        if hashlib.sha256(blob).hexdigest() != wrapper["sha256"]:
            # Bit rot (or deliberate poisoning): the payload no longer
            # matches the checksum taken at write time.  Invalidate and
            # recompute — never hand back silently corrupted data.
            self.stats.checksum_failures += 1
            self._count("checksum_failures")
            self._invalidate(path)
            return None
        try:
            payload = pickle.loads(blob)
        except Exception:
            self._invalidate(path)
            return None
        self.stats.hits += 1
        self._count("hits")
        return payload

    def _invalidate(self, path: str) -> None:
        """Evict one unusable entry, counting it as an error + miss."""
        self.stats.errors += 1
        self.stats.misses += 1
        self._count("errors")
        self._count("misses")
        self._count("evictions")
        self._evict(path)

    def put(self, digest: str, payload: Any,
            corrupt: bool = False) -> None:
        """Store ``payload`` under ``digest`` (atomic, last-writer-wins).

        ``corrupt`` flips one payload byte *after* the checksum is
        taken — the fault-injection hook (kind ``cache-poison``) that
        lets tests and ``--fault-plan`` runs prove poisoned entries are
        detected and invalidated on read.
        """
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        checksum = hashlib.sha256(blob).hexdigest()
        if corrupt and blob:
            blob = blob[:-1] + bytes([blob[-1] ^ 0xFF])
        path = self._path(digest)
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump({"format": CACHE_FORMAT, "sha256": checksum,
                             "payload": blob},
                            fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except OSError:
            self.stats.errors += 1
            self._count("errors")
            self._evict(tmp)
            return
        self.stats.stores += 1
        self._count("stores")

    @staticmethod
    def _evict(path: str) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass

    # -- maintenance ----------------------------------------------------------

    def __len__(self) -> int:
        """Number of entries currently on disk."""
        count = 0
        for _, _, files in os.walk(self.root):
            count += sum(1 for f in files if f.endswith(".pkl"))
        return count

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for dirpath, _, files in os.walk(self.root):
            for f in files:
                if f.endswith(".pkl"):
                    self._evict(os.path.join(dirpath, f))
                    removed += 1
        return removed
