"""Typed columnar data.

A :class:`Column` owns a one-dimensional numpy array together with a logical
:class:`DataType`. The logical type is what the relational layer reasons
about; the physical dtype is a numpy representation chosen for vectorized
execution:

==========  =======================
logical     physical numpy dtype
==========  =======================
FLOAT       ``float64``
INT         ``int64``
BOOL        ``bool_``
STRING      unicode (``<U``) array
==========  =======================

Strings use numpy unicode arrays rather than object arrays so that equality
comparisons and ``np.isin`` stay vectorized.

A STRING column may also carry an immutable *dictionary encoding*: a
sorted ``dictionary`` equal to ``np.unique(data)`` and ``uint8`` ``codes``
with ``dictionary[codes] == data`` exactly. It is built once, when
statistics are collected at registration (:meth:`Column.encode`), and
only for columns with at most :data:`MAX_DICTIONARY_SIZE` distinct values
(spilled columns, :mod:`repro.storage.mmap_column`, keep none).
Row-preserving operations carry it along: ``slice`` slices the codes,
``take``/``mask`` gather them. The compiled expression engine compares
``=``/``<>``/``IN`` against string literals on the codes when present and
on ``data`` otherwise, with identical results.
"""

from __future__ import annotations

import enum
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SchemaError


class DataType(enum.Enum):
    """Logical column types understood by the engine."""

    FLOAT = "float"
    INT = "int"
    BOOL = "bool"
    STRING = "string"

    @property
    def is_numeric(self) -> bool:
        return self in (DataType.FLOAT, DataType.INT)

    @classmethod
    def from_name(cls, name: str) -> "DataType":
        """Parse a SQL-ish type name (``float``, ``int``, ``bigint``...)."""
        normalized = name.strip().lower()
        aliases = {
            "float": cls.FLOAT,
            "double": cls.FLOAT,
            "real": cls.FLOAT,
            "decimal": cls.FLOAT,
            "numeric": cls.FLOAT,
            "int": cls.INT,
            "integer": cls.INT,
            "bigint": cls.INT,
            "smallint": cls.INT,
            "tinyint": cls.INT,
            "bool": cls.BOOL,
            "boolean": cls.BOOL,
            "bit": cls.BOOL,
            "string": cls.STRING,
            "varchar": cls.STRING,
            "nvarchar": cls.STRING,
            "char": cls.STRING,
            "text": cls.STRING,
        }
        if normalized not in aliases:
            raise SchemaError(f"unknown type name: {name!r}")
        return aliases[normalized]


_NUMPY_KIND_TO_TYPE = {
    "f": DataType.FLOAT,
    "i": DataType.INT,
    "u": DataType.INT,
    "b": DataType.BOOL,
    "U": DataType.STRING,
}


def infer_dtype(values: np.ndarray) -> DataType:
    """Infer the logical type of a numpy array from its dtype kind."""
    kind = values.dtype.kind
    if kind == "O":
        # Object arrays of Python strings are coerced by Column.__init__.
        return DataType.STRING
    if kind not in _NUMPY_KIND_TO_TYPE:
        raise SchemaError(f"unsupported numpy dtype: {values.dtype}")
    return _NUMPY_KIND_TO_TYPE[kind]


def _physical_cast(values: np.ndarray, dtype: DataType) -> np.ndarray:
    """Coerce ``values`` to the canonical physical dtype for ``dtype``."""
    if dtype is DataType.FLOAT:
        return np.asarray(values, dtype=np.float64)
    if dtype is DataType.INT:
        return np.asarray(values, dtype=np.int64)
    if dtype is DataType.BOOL:
        return np.asarray(values, dtype=np.bool_)
    if dtype is DataType.STRING:
        if values.dtype.kind == "U":
            return values
        return np.asarray(values, dtype=np.str_)
    raise SchemaError(f"unsupported logical type: {dtype}")


#: Most distinct values a dictionary encoding holds (codes are uint8).
MAX_DICTIONARY_SIZE = 256


def _packed_keys(data: np.ndarray) -> Optional[np.ndarray]:
    """One order-preserving uint64 key per row of a ``<U`` array, or None.

    Views the UCS4 buffer as an ``(n, width)`` char matrix and measures
    the used prefix length and the widest code point. When that prefix
    fits in 64 bits it is packed, first char most significant: keys
    compare as the strings do. Wider values return None.
    """
    n, width = len(data), data.dtype.itemsize // 4
    if n == 0 or width == 0:
        return None
    chars = np.ascontiguousarray(data).view(np.uint32).reshape(n, width)
    # OR-reduce over rows in blocks: one pass over the buffer with long
    # inner loops (a plain axis-0 reduce runs a width-long loop per row).
    block = 256
    head = n - n % block
    used = np.bitwise_or.reduce(chars[head:], axis=0)
    if head:
        partial = np.bitwise_or.reduce(
            chars[:head].reshape(-1, block * width), axis=0)
        used |= np.bitwise_or.reduce(partial.reshape(block, width), axis=0)
    nonzero = np.flatnonzero(used)
    length = int(nonzero[-1]) + 1 if len(nonzero) else 0
    bits = int(used.max()).bit_length()
    if length * bits > 64:
        return None
    keys = np.zeros(n, dtype=np.uint64)
    shift = np.uint64(bits)
    for index in range(length):
        keys <<= shift
        keys |= chars[:, index]
    return keys


def dictionary_encode(data: np.ndarray
                      ) -> Tuple[int, Optional[np.ndarray], Optional[np.ndarray]]:
    """Encode a ``<U`` array: ``(distinct count, dictionary, codes)``.

    ``dictionary`` equals ``np.unique(data)`` and ``dictionary[codes] ==
    data``; both are None when there are more than
    :data:`MAX_DICTIONARY_SIZE` distinct values. The distinct values are
    sorted and looked up as packed integer keys (:func:`_packed_keys`)
    when the values fit 64 bits, which costs about half the string sort,
    and as strings otherwise.
    """
    keys = _packed_keys(data)
    values = data if keys is None else keys
    distinct = np.unique(values)
    if len(distinct) > MAX_DICTIONARY_SIZE:
        return len(distinct), None, None
    codes = np.searchsorted(distinct, values).astype(np.uint8)
    if keys is not None:
        # Any row of a key is its string: the keys are exact.
        rows = np.empty(len(distinct), dtype=np.intp)
        rows[codes] = np.arange(len(data))
        distinct = data[rows]
    return len(distinct), distinct, codes


class Column:
    """An immutable-by-convention 1-D typed array.

    The engine never mutates a column in place; operators build new columns.
    ``dictionary``/``codes`` are the optional string encoding (see the
    module docstring); both are None or both are set, and once set they
    never change.
    """

    __slots__ = ("data", "dtype", "dictionary", "codes")

    def __init__(self, values: Iterable | np.ndarray, dtype: DataType | None = None):
        array = np.asarray(values)
        if array.ndim != 1:
            raise SchemaError(f"columns must be 1-D, got shape {array.shape}")
        if dtype is None:
            dtype = infer_dtype(array)
        self.data: np.ndarray = _physical_cast(array, dtype)
        self.dtype: DataType = dtype
        self.dictionary: Optional[np.ndarray] = None
        self.codes: Optional[np.ndarray] = None

    @classmethod
    def _derived(cls, data: np.ndarray, dtype: DataType,
                 dictionary: Optional[np.ndarray],
                 codes: Optional[np.ndarray]) -> "Column":
        """A column over already-physical ``data`` with the given codes."""
        column = cls.__new__(cls)
        column.data = data
        column.dtype = dtype
        column.dictionary = dictionary if codes is not None else None
        column.codes = codes
        return column

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def floats(cls, values: Iterable) -> "Column":
        return cls(np.asarray(values, dtype=np.float64), DataType.FLOAT)

    @classmethod
    def ints(cls, values: Iterable) -> "Column":
        return cls(np.asarray(values, dtype=np.int64), DataType.INT)

    @classmethod
    def bools(cls, values: Iterable) -> "Column":
        return cls(np.asarray(values, dtype=np.bool_), DataType.BOOL)

    @classmethod
    def strings(cls, values: Sequence) -> "Column":
        return cls(np.asarray(values, dtype=np.str_), DataType.STRING)

    # ------------------------------------------------------------------
    # Basic protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        preview = ", ".join(repr(v) for v in self.data[:4])
        suffix = ", ..." if len(self.data) > 4 else ""
        return f"Column<{self.dtype.value}>[{preview}{suffix}] (n={len(self)})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Column):
            return NotImplemented
        return self.dtype is other.dtype and bool(np.array_equal(self.data, other.data))

    def __hash__(self):  # pragma: no cover - columns are not hashable
        raise TypeError("Column is not hashable")

    # ------------------------------------------------------------------
    # Operations used by the executor
    # ------------------------------------------------------------------
    def encode(self) -> Tuple[int, Optional[np.ndarray]]:
        """Dictionary-encode a STRING column: ``(distinct count, dictionary)``.

        Memoized: a column that already carries codes answers from them.
        The dictionary is ``np.unique(data)`` (None above
        :data:`MAX_DICTIONARY_SIZE` distinct values, and then no codes
        are kept).
        """
        if self.dtype is not DataType.STRING:
            raise SchemaError("only STRING columns are dictionary-encoded")
        if self.codes is not None:
            return len(self.dictionary), self.dictionary
        distinct, dictionary, codes = dictionary_encode(self.data)
        if codes is not None:
            self.dictionary, self.codes = dictionary, codes
        return distinct, dictionary

    def take(self, indices: np.ndarray) -> "Column":
        """Gather rows by integer indices."""
        codes = None if self.codes is None else self.codes[indices]
        return Column._derived(self.data[indices], self.dtype,
                               self.dictionary, codes)

    def mask(self, predicate: np.ndarray) -> "Column":
        """Keep rows where the boolean ``predicate`` array is True."""
        if predicate.dtype != np.bool_:
            raise SchemaError("mask requires a boolean array")
        codes = None if self.codes is None else self.codes[predicate]
        return Column._derived(self.data[predicate], self.dtype,
                               self.dictionary, codes)

    def slice(self, start: int, stop: int) -> "Column":
        codes = None if self.codes is None else self.codes[start:stop]
        return Column._derived(self.data[start:stop], self.dtype,
                               self.dictionary, codes)

    def cast(self, dtype: DataType) -> "Column":
        """Cast to another logical type (numeric<->numeric, ->string, bool->int)."""
        if dtype is self.dtype:
            return self
        if dtype is DataType.STRING:
            return Column(self.data.astype(np.str_), DataType.STRING)
        if self.dtype is DataType.STRING:
            if dtype is DataType.FLOAT:
                return Column(self.data.astype(np.float64), DataType.FLOAT)
            if dtype is DataType.INT:
                return Column(self.data.astype(np.float64).astype(np.int64), DataType.INT)
            raise SchemaError(f"cannot cast string column to {dtype}")
        return Column(self.data, dtype)

    def concat(self, other: "Column") -> "Column":
        if other.dtype is not self.dtype:
            raise SchemaError(
                f"cannot concatenate {self.dtype.value} with {other.dtype.value}"
            )
        return Column(np.concatenate([self.data, other.data]), self.dtype)

    def nbytes(self) -> int:
        return int(self.data.nbytes)

    def shares_data_with(self, other: "Column | np.ndarray") -> bool:
        """True when both columns alias the same buffer (zero-copy view).

        ``slice`` and table-level ``select``/``rename``/``prefix`` keep
        sharing; ``take``/``mask``/``concat`` allocate. The late-
        materialization tests assert sharing through Filter pipelines.
        """
        data = other.data if isinstance(other, Column) else other
        return bool(np.shares_memory(self.data, data))


def concat_columns(columns: Sequence[Column]) -> Column:
    """Concatenate several same-typed columns into one."""
    if not columns:
        raise SchemaError("cannot concatenate an empty list of columns")
    first = columns[0]
    for col in columns[1:]:
        if col.dtype is not first.dtype:
            raise SchemaError("concat_columns requires homogeneous types")
    if len(columns) == 1:
        return first
    data = np.concatenate([c.data for c in columns])
    # Codes survive only when every piece carries the same dictionary.
    codes = None
    if all(c.codes is not None for c in columns) and all(
            np.array_equal(c.dictionary, first.dictionary)
            for c in columns[1:]):
        codes = np.concatenate([c.codes for c in columns])
    return Column._derived(data, first.dtype, first.dictionary, codes)
