"""Host-fingerprinted measure-and-persist cache — the autotuner seam.

Measured performance decisions (which conv engine or tile size wins) are
only valid on the machine that measured them, so every persisted record
is partitioned under a digest of the performance-relevant host facts.
:class:`MeasurementCache` owns the mechanics every measuring subsystem
needs and none should reimplement:

* a JSON table on disk, ``{"hosts": {<fingerprint>: {<key>: <record>}}}``,
* an in-memory slice for this host, loaded lazily and saved atomically,
* a path override seam (constructor env var / :meth:`set_path`) so tests
  and deployments can isolate tables,
* ``clear(memory_only=True)`` to simulate a process restart.

The conv autotuner (:mod:`repro.backend.conv_plan`) and the tile-size
autotuner (:mod:`repro.serve.tiling`) are both instances of this class
over different default paths.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import threading
from pathlib import Path
from typing import Any, Callable

import numpy as np

__all__ = ["host_fingerprint", "MeasurementCache"]


def host_fingerprint() -> str:
    """Stable identity of the measuring environment.

    Measured winners transfer between runs on the same machine but not
    between machines, so persisted tables are partitioned by a digest of
    the performance-relevant host facts.
    """
    facts = (platform.machine(), platform.system(), platform.processor(),
             str(os.cpu_count()), platform.python_version(),
             np.__version__)
    return hashlib.sha1("|".join(facts).encode()).hexdigest()[:12]


class MeasurementCache:
    """A host-partitioned key -> record JSON table with atomic persistence.

    Parameters
    ----------
    default_path:
        Where the table lives when neither the env var nor
        :meth:`set_path` overrides it.
    env_var:
        Environment variable consulted for a path override (optional).
    on_invalidate:
        Called whenever the table location changes or is cleared, so the
        owner can drop derived caches (e.g. memoized plans).
    is_current:
        Predicate on a record; a record failing it (e.g. one naming an
        engine that no longer exists) reads as a miss and is overwritten
        by the next :meth:`setdefault`.
    """

    def __init__(self, default_path: Path,
                 env_var: str | None = None,
                 on_invalidate: Callable[[], None] | None = None,
                 is_current: Callable[[dict], bool] | None = None) -> None:
        self._default_path = Path(default_path)
        self._is_current = is_current
        self._env_var = env_var
        self._on_invalidate = on_invalidate
        self._lock = threading.RLock()
        self._path_override: Path | None = None
        self._host: dict[str, dict] | None = None
        self._dirty = False

    # ------------------------------------------------------------------ #
    # Location
    # ------------------------------------------------------------------ #
    def path(self) -> Path:
        """Where the persisted table lives on disk."""
        if self._path_override is not None:
            return self._path_override
        if self._env_var:
            env = os.environ.get(self._env_var)
            if env:
                return Path(env)
        return self._default_path

    def set_path(self, path: str | os.PathLike | None) -> None:
        """Override the table location (``None`` restores the default).

        Drops the in-memory slice so the next access reloads from the new
        location, and fires ``on_invalidate`` so derived caches follow.
        """
        with self._lock:
            self._path_override = None if path is None else Path(path)
            self._host = None
            self._dirty = False
        if self._on_invalidate is not None:
            self._on_invalidate()

    # ------------------------------------------------------------------ #
    # Records
    # ------------------------------------------------------------------ #
    def _load(self) -> dict[str, dict]:
        """This host's slice of the persisted table (lock held)."""
        if self._host is None:
            table: dict[str, dict] = {}
            try:
                data = json.loads(self.path().read_text())
                table = data.get("hosts", {}).get(host_fingerprint(), {})
                if not isinstance(table, dict):  # pragma: no cover - corrupt
                    table = {}
            except (OSError, ValueError):
                table = {}
            self._host = table
        return self._host

    def _current(self, rec: dict | None) -> dict | None:
        if rec is None or self._is_current is None or self._is_current(rec):
            return rec
        return None

    def get(self, key: str) -> dict | None:
        with self._lock:
            return self._current(self._load().get(key))

    def setdefault(self, key: str, record: dict[str, Any]) -> dict:
        """Insert ``record`` unless ``key`` already has a current one;
        returns the winning record and persists when an insert happened."""
        with self._lock:
            table = self._load()
            existing = self._current(table.get(key))
            if existing is None:
                existing = table[key] = record
                self._dirty = True
        if existing is record:
            self.save()
        return existing

    def snapshot(self) -> dict[str, dict]:
        """Copy of this host's records (key -> record)."""
        with self._lock:
            return dict(self._load())

    def clear(self, memory_only: bool = False) -> None:
        """Drop the in-memory slice (and, unless ``memory_only``, the
        file).  ``memory_only=True`` simulates a process restart."""
        with self._lock:
            self._host = None
            self._dirty = False
            if not memory_only:
                try:
                    self.path().unlink()
                except OSError:
                    pass
        if self._on_invalidate is not None:
            self._on_invalidate()

    def save(self) -> Path | None:
        """Persist pending records (read-merge-write, atomic replace);
        returns the path written, or ``None`` when nothing changed."""
        with self._lock:
            if not self._dirty or self._host is None:
                return None
            path = self.path()
            try:
                data = json.loads(path.read_text())
                if not isinstance(data, dict):  # pragma: no cover - corrupt
                    data = {}
            except (OSError, ValueError):
                data = {}
            hosts = data.setdefault("hosts", {})
            merged = dict(hosts.get(host_fingerprint(), {}))
            merged.update(self._host)
            hosts[host_fingerprint()] = merged
            data["version"] = 1
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(path.suffix + ".tmp")
            tmp.write_text(json.dumps(data, indent=1, sort_keys=True))
            os.replace(tmp, path)
            self._dirty = False
            return path
