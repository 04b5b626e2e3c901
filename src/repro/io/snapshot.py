"""Binary snapshots of self-managed collections.

The paper's motivating application "on startup, loads a company's most
recent business data into collections of managed objects" (section 1).
This module provides that startup path: a compact, versioned binary
snapshot of any set of collections, including cross-collection
references, reloadable into a fresh memory manager.

Format (little-endian)::

    magic   b"SMCSNAP1"
    u32     collection count
    per collection:
        str     collection name
        str     schema (tabular class) name
        u32     field count
        per field: str name | str type | i32 meta (width or scale, -1)
        u64     row count
        rows in enumeration order; per field:
            scalars   struct-packed raw representation
            CharField width bytes (NUL padded)
            VarString u32 length + utf-8 bytes
            RefField  str target collection (interned id) + i64 ordinal
                      (-1 for null), ordinal = row position in the target
                      collection's enumeration

After the last collection an optional index section lists each
collection's secondary indexes (``u32 count``, then per index:
collection name | field name | kind).  Loaders recreate and backfill
them, so an index is never silently empty after a reload; files written
before the section existed simply end at the rows and load index-free.

References are rebuilt in a second pass after all rows exist, so cyclic
and forward references round-trip.  Loading validates the stored field
spec against the current tabular class and refuses mismatches.
"""

from __future__ import annotations

import os
import struct
from typing import Any, BinaryIO, Dict, Iterator, List, Optional, Tuple

from repro.core.collection import Collection
from repro.core.columnar import ColumnarCollection
from repro.errors import SmcError
from repro.memory.manager import MemoryManager
from repro.schema.fields import CharField, DecimalField, Field, RefField, VarStringField
from repro.schema.tabular import resolve_tabular

_MAGIC = b"SMCSNAP1"
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_I64 = struct.Struct("<q")


class SnapshotError(SmcError):
    """Raised on malformed or incompatible snapshot files."""


def _write_str(fh: BinaryIO, text: str) -> None:
    data = text.encode("utf-8")
    fh.write(_U32.pack(len(data)))
    fh.write(data)


def _read_str(fh: BinaryIO) -> str:
    (n,) = _U32.unpack(_read_exact(fh, 4))
    return _read_exact(fh, n).decode("utf-8")


def _read_exact(fh: BinaryIO, n: int) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise SnapshotError("truncated snapshot file")
    return data


def _field_meta(field: Field) -> int:
    if isinstance(field, CharField):
        return field.width
    if isinstance(field, DecimalField):
        return field.scale
    return -1


# ----------------------------------------------------------------------
# Saving
# ----------------------------------------------------------------------


def save_collections(
    path: str,
    collections: Dict[str, Any],
    *,
    fsync: bool = False,
    entry_lists: Optional[Dict[str, List[int]]] = None,
) -> int:
    """Write *collections* (name → collection) to *path*.

    Returns the number of rows written.  Reference fields may only point
    at objects inside one of the saved collections.  With ``fsync`` the
    file is fsynced before closing (checkpoints need the bytes durable
    before the manifest rename can point at them).  ``entry_lists``, if
    given, is filled with each collection's indirection-entry ids in row
    write order — the recovery module zips them with the reloaded rows
    to translate log records.
    """
    named = {
        name: coll
        for name, coll in collections.items()
        if not name.startswith("_")
    }
    # entry index -> (collection name, ordinal), for reference encoding.
    ordinals: Dict[int, Tuple[str, int]] = {}
    handle_lists: Dict[str, list] = {}
    for name, coll in named.items():
        handles = list(coll)
        handle_lists[name] = handles
        for i, handle in enumerate(handles):
            ordinals[handle.ref.entry] = (name, i)
        if entry_lists is not None:
            entry_lists[name] = [h.ref.entry for h in handles]

    rows_written = 0
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(_U32.pack(len(named)))
        for name, coll in named.items():
            layout = coll.layout
            _write_str(fh, name)
            _write_str(fh, coll.schema.__name__)
            fh.write(_U32.pack(len(layout.fields)))
            for f in layout.fields:
                _write_str(fh, f.name)
                _write_str(fh, type(f).__name__)
                fh.write(struct.pack("<i", _field_meta(f)))
            handles = handle_lists[name]
            fh.write(_U64.pack(len(handles)))
            for handle in handles:
                _write_row(fh, layout, handle, ordinals)
                rows_written += 1
        # Trailing index section (old loaders stop at the rows).
        specs = [
            (name, field_name, kind)
            for name, coll in named.items()
            for field_name, kind in coll.index_specs()
        ]
        fh.write(_U32.pack(len(specs)))
        for name, field_name, kind in specs:
            _write_str(fh, name)
            _write_str(fh, field_name)
            _write_str(fh, kind)
        if fsync:
            fh.flush()
            os.fsync(fh.fileno())
    return rows_written


def _write_row(fh: BinaryIO, layout, handle, ordinals) -> None:
    for f in layout.fields:
        if isinstance(f, RefField):
            target = getattr(handle, f.name)
            if target is None:
                _write_str(fh, "")
                fh.write(_I64.pack(-1))
            else:
                entry = target.ref.entry
                located = ordinals.get(entry)
                if located is None:
                    raise SnapshotError(
                        f"reference field {f.name} points outside the "
                        f"snapshotted collections"
                    )
                _write_str(fh, located[0])
                fh.write(_I64.pack(located[1]))
        elif isinstance(f, VarStringField):
            data = getattr(handle, f.name).encode("utf-8")
            fh.write(_U32.pack(len(data)))
            fh.write(data)
        elif isinstance(f, CharField):
            data = getattr(handle, f.name).encode("utf-8")
            fh.write(data.ljust(f.width, b"\x00"))
        else:
            fh.write(f._struct.pack(f.to_raw(getattr(handle, f.name))))


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------


def _read_rows(
    fh: BinaryIO,
    coll,
    n_rows: int,
    handles_by_name: Dict[str, list],
    pending_refs: List[Tuple[Any, int, str, str, int]],
) -> Iterator[Dict[str, Any]]:
    """Decode *coll*'s *n_rows* stored rows into ``add`` values, lazily.

    A reference into an already loaded collection becomes its handle; any
    other one (forward, cyclic, or dangling) is left out of the row and
    queued on *pending_refs* for the second pass.
    """
    for row_idx in range(n_rows):
        values: Dict[str, Any] = {}
        for f in coll.layout.fields:
            if isinstance(f, RefField):
                target_name = _read_str(fh)
                (ordinal,) = _I64.unpack(_read_exact(fh, 8))
                if ordinal < 0:
                    continue
                targets = handles_by_name.get(target_name)
                if targets is not None and ordinal < len(targets):
                    values[f.name] = targets[ordinal]
                else:
                    pending_refs.append((coll, row_idx, f.name, target_name, ordinal))
            elif isinstance(f, VarStringField):
                (n,) = _U32.unpack(_read_exact(fh, 4))
                values[f.name] = _read_exact(fh, n).decode("utf-8")
            elif isinstance(f, CharField):
                raw = _read_exact(fh, f.width)
                values[f.name] = raw.rstrip(b"\x00 ").decode("utf-8")
            else:
                (raw,) = f._struct.unpack(_read_exact(fh, f._struct.size))
                values[f.name] = f.from_raw(raw)
        yield values


def load_collections(
    path: str,
    manager: Optional[MemoryManager] = None,
    columnar: bool = False,
    string_dict: bool = True,
    shm: bool = False,
    memory_budget: Optional[int] = None,
    block_shift: Optional[int] = None,
) -> Dict[str, Any]:
    """Load a snapshot into fresh collections on *manager*.

    Returns name → collection (plus ``"_manager"``).  Tabular classes are
    resolved by name through the schema registry and validated against
    the stored field specification.  Snapshots store decoded text, so a
    file written with dictionary encoding on reloads fine with it off
    (and vice versa); ``string_dict``, ``shm`` (shared-memory block
    buffers, for the process executor), ``memory_budget`` (attach a
    pager keeping the block pool under a byte budget) and ``block_shift``
    (log2 block size) only shape the fresh manager and are ignored when
    an explicit *manager* is supplied.
    """
    if manager is None:
        kwargs: Dict[str, Any] = dict(
            string_dict=string_dict, shm=shm, memory_budget=memory_budget
        )
        if block_shift is not None:
            kwargs["block_shift"] = block_shift
        manager = MemoryManager(**kwargs)
    factory = ColumnarCollection if columnar else Collection
    # Tabular classes are resolved by name: user-defined classes must be
    # imported before loading.  The built-in TPC-H schema registers here
    # so snapshots written by the CLI always reload.
    import repro.tpch.schema  # noqa: F401

    with open(path, "rb") as fh:
        if _read_exact(fh, len(_MAGIC)) != _MAGIC:
            raise SnapshotError(f"{path} is not an SMC snapshot")
        (n_collections,) = _U32.unpack(_read_exact(fh, 4))
        collections: Dict[str, Any] = {}
        pending_refs: List[Tuple[Any, int, str, str, int]] = []
        handles_by_name: Dict[str, list] = {}

        for __ in range(n_collections):
            name = _read_str(fh)
            schema_name = _read_str(fh)
            schema = resolve_tabular(schema_name)
            layout = schema.__layout__
            (n_fields,) = _U32.unpack(_read_exact(fh, 4))
            spec = []
            for __f in range(n_fields):
                fname = _read_str(fh)
                ftype = _read_str(fh)
                (meta,) = struct.unpack("<i", _read_exact(fh, 4))
                spec.append((fname, ftype, meta))
            expected = [
                (f.name, type(f).__name__, _field_meta(f))
                for f in layout.fields
            ]
            if spec != expected:
                raise SnapshotError(
                    f"snapshot schema for {schema_name} does not match the "
                    f"current tabular class: {spec} != {expected}"
                )
            coll = factory(schema, manager=manager, name=name)
            collections[name] = coll
            (n_rows,) = _U64.unpack(_read_exact(fh, 8))
            # Rows stream into add_many, which ingests a block of them at
            # a time; handles come back in row order.
            handles_by_name[name] = coll.add_many(
                _read_rows(fh, coll, n_rows, handles_by_name, pending_refs)
            )

        # Second pass: resolve the references _read_rows could not (forward
        # and cyclic ones).
        for coll, row_idx, field_name, target_name, ordinal in pending_refs:
            target_handles = handles_by_name.get(target_name)
            if target_handles is None or ordinal >= len(target_handles):
                raise SnapshotError(
                    f"dangling reference {field_name} -> "
                    f"{target_name}[{ordinal}]"
                )
            handle = handles_by_name[coll.name][row_idx]
            setattr(handle, field_name, target_handles[ordinal])

        # Optional trailing index section: recreate secondary indexes so
        # they are backfilled from the reloaded rows (a loaded collection
        # must never have a silently empty index).  Pre-section files end
        # right here, which reads as zero bytes.
        head = fh.read(4)
        if head:
            if len(head) != 4:
                raise SnapshotError("truncated index section")
            (n_indexes,) = _U32.unpack(head)
            for __ in range(n_indexes):
                coll_name = _read_str(fh)
                field_name = _read_str(fh)
                kind = _read_str(fh)
                coll = collections.get(coll_name)
                if coll is None:
                    raise SnapshotError(
                        f"index section names unknown collection "
                        f"{coll_name!r}"
                    )
                if kind == "hash":
                    coll.create_index(field_name)
                elif kind == "sorted":
                    coll.create_sorted_index(field_name)
                else:
                    raise SnapshotError(f"unknown index kind {kind!r}")

    collections["_manager"] = manager
    return collections
