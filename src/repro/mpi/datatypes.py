"""MPI datatypes for the simulated runtime.

Named types wrap numpy scalar dtypes.  Derived types are built with the
MPI-2 constructors (contiguous, vector, indexed, struct) and may nest
arbitrarily, forming the *type hierarchy* that Section 4.2 of the paper
tracks in its datatype handle table.

A datatype describes a byte layout relative to a base address.  ``pack``
gathers the described bytes out of a buffer into a contiguous ``bytes``
payload; ``unpack`` scatters a payload back.  Payloads are what travel
through the simulated network and what the C3 protocol logs, so
non-contiguous regions are logged piece-by-piece exactly as the paper
describes ("the datatype hierarchy is recursively traversed to identify and
individually store or retrieve each piece of the message").
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from .errors import InvalidDatatypeError


class Datatype:
    """Base class for all datatypes.

    Attributes
    ----------
    size:
        Number of payload bytes per element (sum of base-type bytes).
    extent:
        Span in bytes from the first to one past the last byte described,
        used to step between consecutive elements of this type.
    """

    def __init__(self, name: str, size: int, extent: int, children: Tuple["Datatype", ...] = ()):
        self.name = name
        self.size = size
        self.extent = extent
        self.children = children
        self.committed = False
        self.freed = False
        #: cached (offsets array, dense?) layout — types are immutable once
        #: constructed, so the byte map never changes
        self._layout_cache: Tuple[np.ndarray, bool] = None

    # -- lifecycle ---------------------------------------------------------
    def Commit(self) -> "Datatype":
        """Mark the type ready for use in communication (``MPI_Type_commit``)."""
        self._check_not_freed()
        self.committed = True
        return self

    def Free(self) -> None:
        """Release the handle (``MPI_Type_free``)."""
        self._check_not_freed()
        self.freed = True

    def _check_not_freed(self) -> None:
        if self.freed:
            raise InvalidDatatypeError(f"datatype {self.name} has been freed")

    def _check_usable(self) -> None:
        self._check_not_freed()
        if not self.committed:
            raise InvalidDatatypeError(f"datatype {self.name} used before Commit()")

    # -- layout ------------------------------------------------------------
    def byte_offsets(self) -> List[int]:
        """Offsets (relative to an element's base) of each payload byte."""
        raise NotImplementedError

    def describe(self) -> dict:
        """A constructor recipe: enough to recreate the type after restart."""
        raise NotImplementedError

    # -- pack / unpack -----------------------------------------------------
    def _layout(self) -> Tuple[np.ndarray, bool]:
        """Cached byte map: (per-element offsets, is the layout dense?).

        A *dense* layout (every byte of the extent is payload, in order —
        all named scalar types, and contiguous compositions of them)
        packs with a single slice instead of an index gather.
        """
        cached = self._layout_cache
        if cached is None:
            offs = np.asarray(self.byte_offsets(), dtype=np.intp)
            dense = (self.extent == self.size and len(offs) == self.size
                     and bool((offs == np.arange(self.size, dtype=np.intp)).all()))
            cached = self._layout_cache = (offs, dense)
        return cached

    def pack(self, buffer, count: int = 1) -> bytes:
        """Gather ``count`` elements of this type from ``buffer`` into bytes."""
        self._check_usable_for_pack()
        raw = _as_byte_view(buffer)
        offs, dense = self._layout()
        need = count * len(offs)
        if dense:
            if raw.size < need:
                raise InvalidDatatypeError(
                    f"buffer of {raw.size} bytes too short to pack "
                    f"{count} x {self.name}"
                )
            return raw[:need].tobytes()
        if count == 1:
            return raw[offs].tobytes()
        idx = (np.arange(count, dtype=np.intp)[:, None] * self.extent
               + offs[None, :]).ravel()
        return raw[idx].tobytes()

    def unpack(self, payload: bytes, buffer, count: int = 1) -> None:
        """Scatter a packed payload into ``buffer`` (inverse of :meth:`pack`)."""
        self._check_usable_for_pack()
        raw = _as_byte_view(buffer)
        offs, dense = self._layout()
        src = np.frombuffer(payload, dtype=np.uint8)
        need = count * len(offs)
        if len(src) < need:
            raise InvalidDatatypeError(
                f"payload of {len(src)} bytes too short for {count} x {self.name}"
            )
        if dense:
            raw[:need] = src[:need]
            return
        if count == 1:
            raw[offs] = src[:need]
            return
        idx = (np.arange(count, dtype=np.intp)[:, None] * self.extent
               + offs[None, :]).ravel()
        raw[idx] = src[:need]

    def _check_usable_for_pack(self) -> None:
        # Named types are implicitly committed; derived ones must be.
        self._check_not_freed()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name} size={self.size} extent={self.extent}>"


class NamedType(Datatype):
    """A predefined scalar type backed by a numpy dtype."""

    def __init__(self, name: str, np_dtype):
        self.np_dtype = np.dtype(np_dtype)
        super().__init__(name, self.np_dtype.itemsize, self.np_dtype.itemsize)
        self.committed = True

    def byte_offsets(self) -> List[int]:
        return list(range(self.np_dtype.itemsize))

    def describe(self) -> dict:
        return {"kind": "named", "name": self.name}

    # Named types are never truly freed in MPI; make Free a no-op.
    def Free(self) -> None:
        return


class ContiguousType(Datatype):
    """``MPI_Type_contiguous``: ``count`` consecutive elements of a base type."""

    def __init__(self, count: int, base: Datatype):
        base._check_not_freed()
        self.count = count
        self.base = base
        super().__init__(
            f"contig({count},{base.name})",
            size=count * base.size,
            extent=count * base.extent,
            children=(base,),
        )

    def byte_offsets(self) -> List[int]:
        base_offs = self.base.byte_offsets()
        return [i * self.base.extent + o for i in range(self.count) for o in base_offs]

    def describe(self) -> dict:
        return {"kind": "contiguous", "count": self.count}

    def _check_usable_for_pack(self) -> None:
        self._check_usable()


class VectorType(Datatype):
    """``MPI_Type_vector``: ``count`` blocks of ``blocklength`` elements,
    separated by ``stride`` elements (all in units of the base type)."""

    def __init__(self, count: int, blocklength: int, stride: int, base: Datatype):
        base._check_not_freed()
        self.count = count
        self.blocklength = blocklength
        self.stride = stride
        self.base = base
        last = (count - 1) * stride + blocklength if count > 0 else 0
        super().__init__(
            f"vector({count},{blocklength},{stride},{base.name})",
            size=count * blocklength * base.size,
            extent=last * base.extent,
            children=(base,),
        )

    def byte_offsets(self) -> List[int]:
        base_offs = self.base.byte_offsets()
        offs: List[int] = []
        for b in range(self.count):
            start = b * self.stride
            for j in range(self.blocklength):
                elem = (start + j) * self.base.extent
                offs.extend(elem + o for o in base_offs)
        return offs

    def describe(self) -> dict:
        return {
            "kind": "vector",
            "count": self.count,
            "blocklength": self.blocklength,
            "stride": self.stride,
        }

    def _check_usable_for_pack(self) -> None:
        self._check_usable()


class IndexedType(Datatype):
    """``MPI_Type_indexed``: blocks of varying length at varying displacements
    (both in units of the base type)."""

    def __init__(self, blocklengths: Sequence[int], displacements: Sequence[int], base: Datatype):
        base._check_not_freed()
        if len(blocklengths) != len(displacements):
            raise InvalidDatatypeError("blocklengths and displacements differ in length")
        self.blocklengths = tuple(int(b) for b in blocklengths)
        self.displacements = tuple(int(d) for d in displacements)
        self.base = base
        total = sum(self.blocklengths)
        span = max(
            (d + b for d, b in zip(self.displacements, self.blocklengths)), default=0
        )
        super().__init__(
            f"indexed({len(blocklengths)} blocks,{base.name})",
            size=total * base.size,
            extent=span * base.extent,
            children=(base,),
        )

    def byte_offsets(self) -> List[int]:
        base_offs = self.base.byte_offsets()
        offs: List[int] = []
        for blen, disp in zip(self.blocklengths, self.displacements):
            for j in range(blen):
                elem = (disp + j) * self.base.extent
                offs.extend(elem + o for o in base_offs)
        return offs

    def describe(self) -> dict:
        return {
            "kind": "indexed",
            "blocklengths": list(self.blocklengths),
            "displacements": list(self.displacements),
        }

    def _check_usable_for_pack(self) -> None:
        self._check_usable()


class StructType(Datatype):
    """``MPI_Type_create_struct``: blocks of (possibly different) base types
    at explicit *byte* displacements."""

    def __init__(self, blocklengths: Sequence[int], byte_displacements: Sequence[int], types: Sequence[Datatype]):
        if not (len(blocklengths) == len(byte_displacements) == len(types)):
            raise InvalidDatatypeError("struct constructor arrays differ in length")
        for t in types:
            t._check_not_freed()
        self.blocklengths = tuple(int(b) for b in blocklengths)
        self.byte_displacements = tuple(int(d) for d in byte_displacements)
        self.types = tuple(types)
        size = sum(b * t.size for b, t in zip(self.blocklengths, self.types))
        span = max(
            (d + b * t.extent for b, d, t in zip(self.blocklengths, self.byte_displacements, self.types)),
            default=0,
        )
        super().__init__(
            f"struct({len(types)} blocks)", size=size, extent=span, children=tuple(types)
        )

    def byte_offsets(self) -> List[int]:
        offs: List[int] = []
        for blen, disp, t in zip(self.blocklengths, self.byte_displacements, self.types):
            t_offs = t.byte_offsets()
            for j in range(blen):
                elem = disp + j * t.extent
                offs.extend(elem + o for o in t_offs)
        return offs

    def describe(self) -> dict:
        return {
            "kind": "struct",
            "blocklengths": list(self.blocklengths),
            "byte_displacements": list(self.byte_displacements),
        }

    def _check_usable_for_pack(self) -> None:
        self._check_usable()


def _as_byte_view(buffer) -> np.ndarray:
    """View any contiguous buffer (numpy array / bytearray) as mutable bytes."""
    if isinstance(buffer, np.ndarray):
        if not buffer.flags["C_CONTIGUOUS"]:
            raise InvalidDatatypeError("communication buffers must be C-contiguous")
        return buffer.view(np.uint8).reshape(-1)
    if isinstance(buffer, (bytearray, memoryview)):
        return np.frombuffer(buffer, dtype=np.uint8)
    raise InvalidDatatypeError(f"unsupported buffer type {type(buffer).__name__}")


# -- predefined named types -------------------------------------------------
BYTE = NamedType("MPI_BYTE", np.uint8)
CHAR = NamedType("MPI_CHAR", np.int8)
SHORT = NamedType("MPI_SHORT", np.int16)
INT = NamedType("MPI_INT", np.int32)
LONG = NamedType("MPI_LONG", np.int64)
UNSIGNED = NamedType("MPI_UNSIGNED", np.uint32)
UNSIGNED_LONG = NamedType("MPI_UNSIGNED_LONG", np.uint64)
FLOAT = NamedType("MPI_FLOAT", np.float32)
DOUBLE = NamedType("MPI_DOUBLE", np.float64)
COMPLEX = NamedType("MPI_COMPLEX", np.complex64)
DOUBLE_COMPLEX = NamedType("MPI_DOUBLE_COMPLEX", np.complex128)
BOOL = NamedType("MPI_C_BOOL", np.bool_)

NAMED_TYPES = {
    t.name: t
    for t in (BYTE, CHAR, SHORT, INT, LONG, UNSIGNED, UNSIGNED_LONG, FLOAT,
              DOUBLE, COMPLEX, DOUBLE_COMPLEX, BOOL)
}

_NUMPY_TO_NAMED = {
    np.dtype(np.uint8): BYTE,
    np.dtype(np.int8): CHAR,
    np.dtype(np.int16): SHORT,
    np.dtype(np.int32): INT,
    np.dtype(np.int64): LONG,
    np.dtype(np.uint32): UNSIGNED,
    np.dtype(np.uint64): UNSIGNED_LONG,
    np.dtype(np.float32): FLOAT,
    np.dtype(np.float64): DOUBLE,
    np.dtype(np.complex64): COMPLEX,
    np.dtype(np.complex128): DOUBLE_COMPLEX,
    np.dtype(np.bool_): BOOL,
}


def dense_type(buf):
    """The named type of a buffer one byte copy moves whole, else None.

    The entry rule of the fused point-to-point branch: an exact
    ``np.ndarray``, at least 1-d, C-contiguous, whose dtype has a named
    MPI type.  For such a buffer ``pack(buf, buf.size)`` is
    ``buf.tobytes()`` and :func:`unpack_dense` is ``unpack``; any other
    buffer takes the general code, which raises the general code's
    errors.
    """
    if type(buf) is np.ndarray and buf.ndim and buf.flags.c_contiguous:
        return _NUMPY_TO_NAMED.get(buf.dtype)
    return None


def unpack_dense(dtype: NamedType, payload: bytes, buf: np.ndarray) -> int:
    """``dtype.unpack`` of a whole-element payload into a buffer that
    :func:`dense_type` accepted, as one byte copy; returns the element
    count.  The caller has checked that the payload fits."""
    elems = len(payload) // dtype.size
    need = elems * dtype.size
    try:
        memoryview(buf).cast("B")[:need] = (
            payload if need == len(payload) else memoryview(payload)[:need])
    except TypeError:  # read-only buffer: raise what unpack raises
        dtype.unpack(payload, buf, count=elems)
    return elems


def from_numpy_dtype(dtype) -> NamedType:
    """Automatic datatype discovery for numpy buffers (mpi4py-style)."""
    try:
        return _NUMPY_TO_NAMED[np.dtype(dtype)]
    except KeyError:
        raise InvalidDatatypeError(f"no named MPI type for numpy dtype {dtype}") from None
