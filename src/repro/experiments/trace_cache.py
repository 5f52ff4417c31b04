"""Content-keyed trace cache: small in-process LRU + on-disk store.

Synthetic trace generation is deterministic but expensive (the address
loop walks every request), and a campaign evaluates the same trace at
many sweep points — across *processes* when the parallel engine fans
points out to workers.  This module memoizes :func:`~repro.trace.
synthetic.generate_trace` at two levels:

1. an in-process LRU of fully materialized :class:`Trace` objects,
   bounded to a handful of entries (a full Trace-1 pins tens of MB, so
   the old ``lru_cache(maxsize=32)`` approach could hold gigabytes);
2. a directory of ``.npz`` files keyed by a content hash of the
   generator config, shared by every process on the machine.

The disk key covers *every* generator knob (including the seed and a
format version), so a config change can never alias a stale file.
Writes are atomic (``os.replace`` of a temp file), so concurrent
workers warming the same entry race benignly: one wins, the others
either re-read the complete file or regenerate.

Environment variables
---------------------
``REPRO_TRACE_CACHE``
    Cache directory.  Defaults to ``~/.cache/repro/traces``.  Set to
    ``off`` (or ``0``/``none``) to disable the disk layer entirely —
    the in-process LRU still applies.
``REPRO_TRACE_MEMCACHE``
    Size of the in-process LRU (default 4 traces; 0 disables it).

Effectiveness is observable: every lookup bumps the process-local
counters behind :func:`stats` (memory/disk hits, generations,
evictions), which the campaign telemetry layer samples around each
point to attribute cache traffic to the point that caused it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import tempfile
from collections import OrderedDict
from pathlib import Path
from typing import IO, Iterator, Optional

import numpy as np

from repro.trace.record import TRACE_DTYPE, Trace
from repro.trace.synthetic import SyntheticTraceConfig, generate_trace

__all__ = [
    "CacheStats",
    "atomic_open",
    "cache_dir",
    "cached_generate",
    "clear_memory_cache",
    "config_key",
    "env_dir",
    "memory_cache_size",
    "reset_stats",
    "stats",
]

#: Bump when the on-disk layout or the generator's draw order changes.
_FORMAT_VERSION = 1


def env_dir(var: str, default_name: str) -> Optional[Path]:
    """The directory environment variable *var* names, or ``None``.

    Unset means ``~/.cache/repro/<default_name>``; ``off``, ``0``,
    ``none`` or empty means disabled.
    """
    raw = os.environ.get(var)
    if raw is None:
        return Path.home() / ".cache" / "repro" / default_name
    if raw.strip().lower() in ("off", "0", "none", ""):
        return None
    return Path(raw).expanduser()


@contextlib.contextmanager
def atomic_open(path: Path, mode: str = "w") -> Iterator[IO]:
    """Write *path* through a temp file that replaces it on success.

    Readers never see a partial file, and concurrent writers race
    benignly: the last ``os.replace`` wins.  Raises ``OSError``; callers
    that must never fail the run catch it.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=path.suffix + ".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def cache_dir() -> Optional[Path]:
    """The on-disk cache directory, or ``None`` when disabled."""
    return env_dir("REPRO_TRACE_CACHE", "traces")


def memory_cache_size() -> int:
    """Capacity of the in-process LRU (entries, not bytes)."""
    raw = os.environ.get("REPRO_TRACE_MEMCACHE", "4")
    try:
        return max(0, int(raw))
    except ValueError:
        return 4


def config_key(cfg: SyntheticTraceConfig) -> str:
    """Stable content hash of every generator knob."""
    payload = dataclasses.asdict(cfg)
    payload["__format__"] = _FORMAT_VERSION
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()
    return f"{cfg.name.replace('/', '_').replace('@', '_')}-{digest[:16]}"


# -- statistics --------------------------------------------------------------


@dataclasses.dataclass
class CacheStats:
    """Process-local effectiveness counters for both cache layers.

    Every :func:`cached_generate` call ends in exactly one of
    ``memory_hits``, ``disk_hits`` or ``generated``; the remaining
    fields break down the disk layer (a ``disk_miss`` is a lookup that
    found no usable file — corrupt files count here too) and the LRU's
    capacity pressure (``memory_evictions``).
    """

    memory_hits: int = 0
    memory_evictions: int = 0
    disk_hits: int = 0
    disk_misses: int = 0
    disk_stores: int = 0
    generated: int = 0

    @property
    def lookups(self) -> int:
        return self.memory_hits + self.disk_hits + self.generated

    @property
    def hit_ratio(self) -> float:
        n = self.lookups
        return (self.memory_hits + self.disk_hits) / n if n else float("nan")

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)

    def delta(self, earlier: "CacheStats") -> "CacheStats":
        """Counter increments since the *earlier* snapshot."""
        return CacheStats(
            **{
                f.name: getattr(self, f.name) - getattr(earlier, f.name)
                for f in dataclasses.fields(CacheStats)
            }
        )


_stats = CacheStats()


def stats() -> CacheStats:
    """A snapshot of the process-local cache counters."""
    return dataclasses.replace(_stats)


def reset_stats() -> None:
    """Zero the counters (tests; per-campaign accounting)."""
    global _stats
    _stats = CacheStats()


# -- in-process layer --------------------------------------------------------

_memory: "OrderedDict[str, Trace]" = OrderedDict()


def clear_memory_cache() -> None:
    """Drop every in-process entry (tests, memory pressure)."""
    _memory.clear()


def _memory_get(key: str) -> Optional[Trace]:
    trace = _memory.get(key)
    if trace is not None:
        _memory.move_to_end(key)
        _stats.memory_hits += 1
    return trace


def _memory_put(key: str, trace: Trace) -> None:
    cap = memory_cache_size()
    if cap == 0:
        return
    _memory[key] = trace
    _memory.move_to_end(key)
    while len(_memory) > cap:
        _memory.popitem(last=False)
        _stats.memory_evictions += 1


# -- disk layer --------------------------------------------------------------


def _disk_path(key: str) -> Optional[Path]:
    base = cache_dir()
    return None if base is None else base / f"{key}.npz"


def _disk_load(path: Path, cfg: SyntheticTraceConfig) -> Optional[Trace]:
    try:
        with np.load(path, allow_pickle=False) as archive:
            meta = json.loads(str(archive["meta"]))
            records = archive["records"]
    except (OSError, ValueError, KeyError, json.JSONDecodeError):
        # Truncated/corrupt/foreign file: regenerate rather than fail.
        return None
    if records.dtype != TRACE_DTYPE or meta.get("format") != _FORMAT_VERSION:
        return None
    return Trace(records, meta["ndisks"], meta["blocks_per_disk"], name=meta["name"])


def _disk_store(path: Path, trace: Trace) -> None:
    meta = json.dumps(
        {
            "format": _FORMAT_VERSION,
            "ndisks": trace.ndisks,
            "blocks_per_disk": trace.blocks_per_disk,
            "name": trace.name,
        }
    )
    try:
        with atomic_open(path, "wb") as fh:
            np.savez(fh, records=trace.records, meta=np.array(meta))
    except OSError:
        # A read-only or full cache directory must never fail the run.
        pass


# -- public API --------------------------------------------------------------


def cached_generate(cfg: SyntheticTraceConfig) -> Trace:
    """:func:`generate_trace` through the two cache layers.

    The returned :class:`Trace` is bit-identical to a direct
    ``generate_trace(cfg)`` call — the cache stores the generator's
    exact output, keyed by the exact config.
    """
    key = config_key(cfg)
    trace = _memory_get(key)
    if trace is not None:
        return trace

    path = _disk_path(key)
    if path is not None:
        if path.exists():
            trace = _disk_load(path, cfg)
            if trace is not None:
                _stats.disk_hits += 1
                _memory_put(key, trace)
                return trace
        _stats.disk_misses += 1

    trace = generate_trace(cfg)
    _stats.generated += 1
    if path is not None:
        _disk_store(path, trace)
        _stats.disk_stores += 1
    _memory_put(key, trace)
    return trace
