"""Memory-mapped column backend (spill-to-disk).

Partitioned datasets can exceed RAM. A column spilled to disk becomes a
:class:`MmapColumn`: its buffer is a read-only ``np.memmap`` over an
``.npy`` file, so the OS pages data in on demand and evicts it under
memory pressure — the engine's zero-copy discipline (``slice``,
``select``, ``TableView`` selections) keeps operating on the mapped
buffer without materializing it. Gather/mask/concat allocate ordinary
in-memory columns, exactly as they do for resident data.

Spill files use the crash-safe recipe from :mod:`repro.persist.atomic`
(scratch file + fsync + atomic rename): a crash mid-spill leaves the
in-memory column authoritative and at most a stale scratch file behind.
The write is an IO fault site (``spill.write``) so ``pytest -m chaos``
exercises torn spill writes.
"""

from __future__ import annotations

import io
import os
import re
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.errors import InjectedFaultError, PersistError
from repro.storage.column import Column, DataType, dictionary_encode
from repro.storage.table import Table

#: Fault-injection site for spill-file writes (registered in
#: :data:`repro.resilience.faults.SITES`).
SITE_SPILL_WRITE = "spill.write"

SPILL_SUFFIX = ".npy"


class MmapColumn(Column):
    """A column whose buffer is a read-only memory map of a spill file.

    Behaves exactly like :class:`Column` (same logical dtype rules, same
    operations); only the buffer's residency differs. ``path`` records
    the backing file so a table can report where its data lives.
    """

    __slots__ = ("path",)

    def __init__(self, path: Union[str, Path],
                 dtype: Optional[DataType] = None):
        path = Path(path)
        try:
            data = np.load(path, mmap_mode="r")
        except (OSError, ValueError) as exc:
            raise PersistError(f"cannot map spill file {path}: {exc}") from exc
        if data.ndim != 1:
            raise PersistError(
                f"spill file {path} holds a {data.ndim}-D array; "
                f"columns must be 1-D")
        # Column.__init__ goes through np.asarray, which re-views the
        # memmap as a plain ndarray over the same mapped buffer — no copy.
        super().__init__(data, dtype)
        self.path = path

    def encode(self):
        """Statistics only: spilled data keeps no resident codes."""
        distinct, dictionary, _ = dictionary_encode(self.data)
        return distinct, dictionary


def write_spill(array: np.ndarray, path: Union[str, Path],
                faults=None, site: str = SITE_SPILL_WRITE) -> int:
    """Durably write ``array`` to ``path`` as ``.npy``; returns file bytes.

    Crash contract (same as snapshots): after return the target is the
    complete array and fsynced; a crash at any earlier point leaves the
    target untouched. A ``torn``-mode fault rule at ``site`` simulates
    that crash — half the serialized payload lands in the scratch file
    and :class:`InjectedFaultError` is raised before the rename.
    """
    # Imported lazily: repro.persist imports repro.storage at package
    # init, so a module-level import here would be circular.
    from repro.persist.atomic import fsync_directory

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    scratch = path.with_name(path.name + ".tmp")
    if faults is not None and faults.tear(site, detail=path.name):
        buffer = io.BytesIO()
        np.save(buffer, np.ascontiguousarray(array))
        payload = buffer.getvalue()
        scratch.write_bytes(payload[: max(1, len(payload) // 2)])
        raise InjectedFaultError(f"torn write at {site}: {path.name}")
    with open(scratch, "wb") as handle:
        np.save(handle, np.ascontiguousarray(array))
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(scratch, path)
    fsync_directory(path.parent)
    return int(path.stat().st_size)


def spill_column(column: Column, path: Union[str, Path],
                 faults=None) -> MmapColumn:
    """Spill one column to ``path`` and return its memory-mapped twin."""
    if isinstance(column, MmapColumn):
        return column
    write_spill(column.data, path, faults=faults)
    return MmapColumn(path, column.dtype)


def _safe_filename(name: str, index: int) -> str:
    # Column names may carry alias prefixes ("orders.total") or other
    # filesystem-hostile characters; the index keeps sanitized collisions
    # ("a.b" vs "a_b") distinct.
    return f"{index:03d}_{re.sub(r'[^A-Za-z0-9_.-]', '_', name)}{SPILL_SUFFIX}"


def spill_table(table: Table, directory: Union[str, Path],
                faults=None) -> Table:
    """Spill every column of ``table`` under ``directory``.

    Returns a new table of :class:`MmapColumn` s in the same column
    order; the input table is untouched (a failed spill leaves it
    authoritative).
    """
    directory = Path(directory)
    items = []
    for index, (name, column) in enumerate(table.columns.items()):
        path = directory / _safe_filename(name, index)
        items.append((name, spill_column(column, path, faults=faults)))
    return Table(items)


def spilled_bytes(table: Table) -> int:
    """Total bytes of ``table`` backed by spill files."""
    return sum(col.nbytes() for col in table.columns.values()
               if isinstance(col, MmapColumn))
