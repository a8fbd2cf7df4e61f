"""Content-addressed on-disk result cache.

Simulation runs are deterministic functions of their spec (workload
profiles, scheme, system configuration, seed), so their results can be
memoised on disk: the spec is serialised to canonical JSON, hashed, and
the result stored under ``<digest>.json``.  A schema version and a
digest of the ``repro`` package's own sources are part of the digested
payload, so changing the result format -- or any line of the code that
computes a result -- invalidates old entries by construction rather
than by manual cleanup.  Entries written by other code are misses, not
errors; a rerun within one tree still hits.

Writes are atomic (``os.replace`` of a temp file) so an interrupted
sweep never leaves a torn entry behind -- a rerun simply resumes from
whatever completed.  Corrupt or stale entries read as misses.

Wipe the cache by deleting its directory (``rm -rf results/.cache``) or
calling :meth:`ResultCache.wipe`.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import pathlib
import tempfile
import time
from typing import Any, Dict, Optional

#: Bump whenever the meaning or format of cached values changes.
SCHEMA_VERSION = 1

#: Default location, shared by every experiment driver.
DEFAULT_CACHE_DIR = "results/.cache"

#: Age (seconds) past which an orphaned ``*.tmp`` file -- left behind by
#: a :meth:`ResultCache.put` that died between ``mkstemp`` and
#: ``os.replace`` -- is considered stale and safe to delete.  Young tmp
#: files may belong to a concurrently writing engine and are left alone.
STALE_TMP_AGE_S = 3600.0


def canonical_json(payload: Any) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@functools.lru_cache(maxsize=None)
def source_digest() -> str:
    """Hex digest of every ``*.py`` file of the installed ``repro``
    package (relative paths and bytes); computed once per process."""
    root = pathlib.Path(__file__).resolve().parents[1]
    sha = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        sha.update(path.relative_to(root).as_posix().encode("utf-8"))
        sha.update(b"\0")
        sha.update(path.read_bytes())
        sha.update(b"\0")
    return sha.hexdigest()


def spec_digest(spec: Any, schema_version: int = SCHEMA_VERSION) -> str:
    """Stable hex digest of a JSON-serialisable spec and the code that
    evaluates it (:func:`source_digest`)."""
    body = canonical_json({"schema": schema_version,
                           "source": source_digest(), "spec": spec})
    return hashlib.sha256(body.encode("utf-8")).hexdigest()[:40]


class ResultCache:
    """A keyed store of JSON values addressed by their spec's hash."""

    def __init__(self, directory: str = DEFAULT_CACHE_DIR,
                 schema_version: int = SCHEMA_VERSION,
                 stale_tmp_age_s: float = STALE_TMP_AGE_S):
        self.directory = pathlib.Path(directory)
        self.schema_version = schema_version
        self._clean_stale_tmps(stale_tmp_age_s)

    def path_for(self, spec: Any) -> pathlib.Path:
        """Where the entry for ``spec`` lives (whether or not it exists)."""
        return self.directory / f"{spec_digest(spec, self.schema_version)}.json"

    def get(self, spec: Any) -> Optional[Dict]:
        """The cached value for ``spec``, or None on a miss.

        The stored spec is compared against the requested one, so a
        (vanishingly unlikely) digest collision or a hand-edited entry
        degrades to a miss, never a wrong result.
        """
        path = self.path_for(spec)
        try:
            with open(path) as handle:
                entry = json.load(handle)
        except (OSError, ValueError):
            return None
        if (entry.get("schema") != self.schema_version
                or entry.get("spec") != json.loads(canonical_json(spec))):
            return None
        return entry["value"]

    def put(self, spec: Any, value: Dict) -> pathlib.Path:
        """Persist ``value`` for ``spec`` atomically; returns the path."""
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.path_for(spec)
        entry = {"schema": self.schema_version,
                 "spec": json.loads(canonical_json(spec)),
                 "value": value}
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(entry, handle, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    def _clean_stale_tmps(self, max_age_s: float) -> None:
        """Remove orphaned ``*.tmp`` files left by interrupted ``put``
        calls; runs once, when the cache is opened.

        Only tmps older than ``max_age_s`` go -- a fresh tmp may be a
        concurrent writer mid-``os.replace``.
        """
        if not self.directory.is_dir():
            return
        cutoff = time.time() - max_age_s
        for path in self.directory.glob("*.tmp"):
            try:
                if path.stat().st_mtime <= cutoff:
                    path.unlink()
            except OSError:
                pass

    def wipe(self) -> int:
        """Delete every entry (and orphaned tmp file); returns how many
        were removed."""
        removed = 0
        if self.directory.is_dir():
            for pattern in ("*.json", "*.tmp"):
                for path in self.directory.glob(pattern):
                    try:
                        path.unlink()
                        removed += 1
                    except OSError:
                        pass
        return removed


__all__ = [
    "DEFAULT_CACHE_DIR",
    "ResultCache",
    "SCHEMA_VERSION",
    "STALE_TMP_AGE_S",
    "canonical_json",
    "source_digest",
    "spec_digest",
]
