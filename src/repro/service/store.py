"""The persistent, content-addressed result store behind ``repro serve``.

Exact answers — worst cases, exact distributions, deterministic simulate
rows — are pure functions of their validated
:class:`~repro.api.query.Query`, so the store keys each ``repro-result``
document by the query's :meth:`~repro.api.query.Query.canonical_hash` and
serves it forever.  Two cache tiers answer a lookup:

* **L1** — an in-process :class:`~repro.api.session._LruCache` of the
  encoded bytes of recently served documents;
* **L2** — a sharded on-disk layout, ``objects/<hash[:2]>/<hash>.json``,
  written atomically (temp file + ``os.replace``) so a crash mid-write
  never leaves a torn object, plus a ``manifest.json`` index.

The store holds bytes.  A document is encoded once, by
:meth:`ResultStore.put`, in the compact :func:`~repro.utils.io.encode_json`
form; those bytes are the object file, the L1 entry and the HTTP body of
every later answer, so a hit encodes nothing and decodes nothing.  Files an
earlier version wrote indented still load (``json.load`` reads both forms);
their bytes are served as they are on disk.

Sampling queries additionally persist their **estimator state**
(:data:`~repro.dist.sampling.ESTIMATOR_STATE_KIND` documents: Welford
moments, P² sketches, draw counts) under the query's
:meth:`~repro.api.query.Query.family_hash` in ``state/<hash[:2]>/``, so a
repeat query with a larger ``samples`` budget resumes the stored
estimators instead of restarting (see ``docs/service.md``).

The on-disk tier is bounded by :meth:`ResultStore.gc`: manifest entries
carry a monotone access ``stamp`` (refreshed on every write and L2 read)
and their object's ``bytes``, and the sweep evicts least-recently-used
objects until both ``max_objects`` and ``max_bytes`` hold — removing the
object file, the manifest entry, the L1 copy and, when no surviving entry
references it, the evicted query's family estimator state.  ``repro serve
--store-max-objects/--store-max-bytes`` runs the sweep at startup and
after every store write.

Metrics (``REPRO_OBS=on``): ``service.store.l1_hits`` /
``service.store.l2_hits`` / ``service.store.misses`` count lookups by the
tier that answered; ``service.store.objects`` gauges the persisted count
and ``service.store.evictions`` counts GC removals.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping, Optional, Union

from repro.api.session import _LruCache
from repro.errors import ConfigurationError
from repro.obs import metrics as _metrics
from repro.utils.io import atomic_write_bytes, atomic_write_json, encode_json

#: Document tag and schema version of ``manifest.json``.
MANIFEST_KIND = "repro-store-manifest"
MANIFEST_VERSION = 1

#: Document tag and schema version of the per-family estimator-state files.
STATE_KIND = "repro-store-state"
STATE_VERSION = 1

#: Default bound on the L1 tier (documents, not bytes).
DEFAULT_L1_LIMIT = 128


def _check_digest(digest: str) -> str:
    """Reject anything that is not a lowercase hex SHA-256 digest.

    The digest becomes a path component, so this is also the traversal
    guard for hashes arriving over HTTP (``GET /v1/result/<hash>``).
    """
    if (
        not isinstance(digest, str)
        or len(digest) != 64
        or any(ch not in "0123456789abcdef" for ch in digest)
    ):
        raise ConfigurationError(f"not a canonical query hash: {digest!r}")
    return digest


class ResultStore:
    """Content-addressed persistence of ``repro-result`` documents.

    Parameters
    ----------
    root:
        Directory holding the store (created on first write).  Layout::

            root/
              manifest.json                    # index of stored objects
              objects/<hash[:2]>/<hash>.json   # repro-result documents
              state/<hash[:2]>/<hash>.json     # per-family estimator state

    l1_limit:
        Bound on the in-process L1 document cache.
    """

    def __init__(self, root: Union[str, Path], l1_limit: int = DEFAULT_L1_LIMIT) -> None:
        self.root = Path(root)
        self.objects_dir = self.root / "objects"
        self.state_dir = self.root / "state"
        self.manifest_path = self.root / "manifest.json"
        self._l1 = _LruCache(l1_limit)
        self._manifest: Optional[dict] = None

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------
    def object_path(self, digest: str) -> Path:
        """The sharded on-disk location of one stored result document."""
        digest = _check_digest(digest)
        return self.objects_dir / digest[:2] / f"{digest}.json"

    def state_path(self, family: str) -> Path:
        """The sharded on-disk location of one family's estimator state."""
        family = _check_digest(family)
        return self.state_dir / family[:2] / f"{family}.json"

    # ------------------------------------------------------------------
    # the manifest
    # ------------------------------------------------------------------
    def manifest(self) -> dict:
        """The store's index document (loaded lazily, empty when absent)."""
        if self._manifest is None:
            if self.manifest_path.exists():
                with open(self.manifest_path, "r", encoding="utf-8") as handle:
                    document = json.load(handle)
                if document.get("kind") != MANIFEST_KIND:
                    raise ConfigurationError(
                        f"not a store manifest: kind={document.get('kind')!r} "
                        f"at {self.manifest_path}"
                    )
                if document.get("version") != MANIFEST_VERSION:
                    raise ConfigurationError(
                        f"unsupported store manifest version "
                        f"{document.get('version')!r} at {self.manifest_path}"
                    )
                self._manifest = document
            else:
                self._manifest = {
                    "kind": MANIFEST_KIND,
                    "version": MANIFEST_VERSION,
                    "entries": {},
                }
        return self._manifest

    def _save_manifest(self) -> None:
        atomic_write_json(self.manifest_path, self.manifest())

    # ------------------------------------------------------------------
    # result documents
    # ------------------------------------------------------------------
    def get(self, digest: str) -> tuple[Optional[bytes], str]:
        """Look one document up; returns ``(body, tier)``.

        ``body`` is the document's stored bytes, exactly as :meth:`put`
        wrote them (``json.loads(body)`` is the document).  ``tier`` is
        ``"l1"`` or ``"l2"`` on a hit and ``"miss"`` otherwise (body
        ``None``).  An L2 hit checks that the file parses, then promotes the
        bytes into L1.
        """
        digest = _check_digest(digest)
        body = self._l1.get(digest)
        if body is not None:
            _metrics.add("service.store.l1_hits")
            return body, "l1"
        try:
            body = self.object_path(digest).read_bytes()
        except FileNotFoundError:
            _metrics.add("service.store.misses")
            return None, "miss"
        json.loads(body)  # a file that is not JSON is an error, never an answer
        self._l1.put(digest, body)
        self._touch(digest)
        _metrics.add("service.store.l2_hits")
        return body, "l2"

    def _next_stamp(self) -> int:
        """Advance the manifest's monotone access clock."""
        manifest = self.manifest()
        stamp = int(manifest.get("clock", 0)) + 1
        manifest["clock"] = stamp
        return stamp

    def _touch(self, digest: str) -> None:
        """Refresh one entry's recency stamp (persisted with the next save)."""
        entry = self.manifest()["entries"].get(digest)
        if entry is not None:
            entry["stamp"] = self._next_stamp()

    def put(self, digest: str, document: Mapping, meta: Optional[Mapping] = None) -> bytes:
        """Persist one result document under its content address.

        Encodes the document once (:func:`~repro.utils.io.encode_json`),
        writes those bytes as the sharded object atomically, records it in
        the manifest (``meta`` — e.g. the producing query's mode — travels
        with the entry) and seeds the L1 tier.  Returns the bytes, which are
        what every later :meth:`get` of the digest answers.
        """
        digest = _check_digest(digest)
        body = encode_json(dict(document))
        path = self.object_path(digest)
        atomic_write_bytes(path, body)
        self._l1.put(digest, body)
        entries = self.manifest()["entries"]
        entry = {
            "path": str(path.relative_to(self.root)),
            "stamp": self._next_stamp(),
            "bytes": len(body),
        }
        if meta:
            entry.update(dict(meta))
        entries[digest] = entry
        self._save_manifest()
        _metrics.add("service.store.writes")
        _metrics.set_gauge("service.store.objects", len(entries))
        return body

    def __contains__(self, digest: str) -> bool:
        return digest in self._l1 or self.object_path(digest).exists()

    def __len__(self) -> int:
        return len(self.manifest()["entries"])

    # ------------------------------------------------------------------
    # estimator state (the resume path)
    # ------------------------------------------------------------------
    def get_state(self, family: str) -> Optional[dict]:
        """The stored estimator-state document of one query family, if any."""
        path = self.state_path(family)
        if not path.exists():
            return None
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        if document.get("kind") != STATE_KIND or document.get("version") != STATE_VERSION:
            return None
        return document

    def put_state(self, family: str, samples: int, states: Mapping) -> Optional[Path]:
        """Persist one family's estimator states at budget ``samples``.

        ``states`` maps cell keys (``topology|n|algorithm``) to
        :data:`~repro.dist.sampling.ESTIMATOR_STATE_KIND` documents.  The
        write is *monotone*: a state drawn under a smaller budget never
        overwrites one drawn under a larger budget (resume always continues
        the furthest estimate), in which case ``None`` is returned.
        """
        family = _check_digest(family)
        existing = self.get_state(family)
        if existing is not None and int(existing.get("samples", 0)) >= samples:
            return None
        path = self.state_path(family)
        atomic_write_json(
            path,
            {
                "kind": STATE_KIND,
                "version": STATE_VERSION,
                "family": family,
                "samples": samples,
                "states": dict(states),
            },
        )
        _metrics.add("service.store.state_writes")
        return path

    # ------------------------------------------------------------------
    # eviction
    # ------------------------------------------------------------------
    def _entry_bytes(self, digest: str, entry: Mapping) -> int:
        """One entry's object size (stat'd lazily for pre-GC manifests)."""
        size = entry.get("bytes")
        if size is None:
            try:
                size = self.object_path(digest).stat().st_size
            except OSError:
                size = 0
        return int(size)

    def total_bytes(self) -> int:
        """Persisted result-document bytes the manifest accounts for."""
        return sum(
            self._entry_bytes(digest, entry)
            for digest, entry in self.manifest()["entries"].items()
        )

    def gc(
        self, max_objects: Optional[int] = None, max_bytes: Optional[int] = None
    ) -> dict:
        """Evict least-recently-used objects until both bounds hold.

        ``None`` bounds don't constrain.  Evicting a document removes its
        object file, its manifest entry and its L1 copy; after the sweep,
        estimator-state files whose query family no longer appears among the
        surviving entries are removed too (a family's state is only useful
        to resume queries the store still remembers).  The manifest is saved
        once, atomically — a crash mid-sweep leaves at worst already-deleted
        objects that the next manifest save forgets.

        Returns a JSON-friendly summary: ``{"evicted", "objects", "bytes"}``.
        """
        entries = self.manifest()["entries"]
        evicted = 0
        if max_objects is not None or max_bytes is not None:
            by_age = sorted(
                entries, key=lambda digest: int(entries[digest].get("stamp", 0))
            )
            total = self.total_bytes()
            cursor = 0
            while cursor < len(by_age) and (
                (max_objects is not None and len(entries) > max_objects)
                or (max_bytes is not None and total > max_bytes)
            ):
                digest = by_age[cursor]
                cursor += 1
                entry = entries.pop(digest)
                total -= self._entry_bytes(digest, entry)
                try:
                    self.object_path(digest).unlink()
                except OSError:
                    pass
                self._l1.pop(digest)
                evicted += 1
            if evicted:
                surviving_families = {
                    entry.get("family") for entry in entries.values()
                } - {None}
                state_files = (
                    sorted(self.state_dir.glob("*/*.json"))
                    if self.state_dir.exists()
                    else []
                )
                for path in state_files:
                    if path.stem not in surviving_families:
                        try:
                            path.unlink()
                        except OSError:
                            pass
                self._save_manifest()
                _metrics.add("service.store.evictions", evicted)
                _metrics.set_gauge("service.store.objects", len(entries))
        return {"evicted": evicted, "objects": len(entries), "bytes": self.total_bytes()}

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """JSON-friendly store statistics (the ``/v1/healthz`` payload)."""
        return {
            "root": str(self.root),
            "objects": len(self),
            "bytes": self.total_bytes(),
            "l1": {
                "entries": len(self._l1),
                "limit": self._l1.limit,
                "hits": self._l1.hits,
                "misses": self._l1.misses,
                "evictions": self._l1.evictions,
            },
        }
