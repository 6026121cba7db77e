"""Crash-safe file writes and the compact JSON encoding the service persists.

Every JSON artifact the library persists — ``repro-result`` documents,
campaign row dumps, the service's content-addressed store objects and its
manifest — goes through :func:`atomic_write_bytes`: the content is written
to a temporary sibling file and moved into place with :func:`os.replace`,
which is atomic on POSIX and Windows.  An interrupted run therefore never
leaves a truncated document at the destination path: readers observe either
the old content or the new content, nothing in between.

The service's files (store objects, manifest, estimator state, job ledger)
and its HTTP bodies use one encoding, :func:`encode_json`: compact,
key-sorted, one-line JSON.  With ``indent=None`` CPython runs its C encoder;
any ``indent`` falls back to the pure-Python one, several times slower.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Union


def encode_json(document) -> bytes:
    """``document`` as compact, key-sorted, one-line JSON plus ``"\\n"``.

    The separators carry no spaces and ``ensure_ascii`` stays on, so the
    result is plain ASCII and the same document always gives the same bytes.
    """
    return json.dumps(document, sort_keys=True, separators=(",", ":")).encode("ascii") + b"\n"


def atomic_write_bytes(path: Union[str, Path], data: bytes) -> None:
    """Write ``data`` to ``path`` via a temporary file and :func:`os.replace`.

    The temporary file lives in the destination directory (``os.replace``
    must not cross filesystems) and is cleaned up on any write failure, so a
    crash mid-write leaves the destination untouched and no stray temp file
    behind on the happy path.
    """
    path = Path(path)
    directory = path.parent
    if directory and not directory.exists():
        directory.mkdir(parents=True, exist_ok=True)
    descriptor, temp_name = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=str(directory) or None
    )
    try:
        with os.fdopen(descriptor, "wb") as handle:
            handle.write(data)
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise


def atomic_write_text(path: Union[str, Path], text: str, encoding: str = "utf-8") -> None:
    """:func:`atomic_write_bytes` of ``text`` in ``encoding``."""
    atomic_write_bytes(path, text.encode(encoding))


def atomic_write_json(path: Union[str, Path], document) -> None:
    """Write ``document`` atomically in the compact :func:`encode_json` form.

    Readers parse it with :func:`json.load`, which reads the indented form
    earlier versions wrote just as well.
    """
    atomic_write_bytes(path, encode_json(document))
