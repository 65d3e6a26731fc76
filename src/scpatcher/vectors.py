"""Sparse vectors, and the columns a knowledge base keeps them in.

An ``EmbeddingVector`` is the pair (buckets, values) of a vector's nonzero
buckets, in ascending order, and their values; every other bucket is 0.0.
Its constructor stores the buckets as a u32 ``array`` and the values as an
``array("d")``, so every vector has one representation, whichever provider
made it: 4 bytes per bucket and 8 per value, with no int or float object
per item.

A knowledge base keeps no object per vector: ``PropertyGraph.vectors`` is
a ``VectorTable``, every vector's buckets in one u32 column and its values
in one f64 column, rows in ascending function-id order, with a column of
row starts. The knowledge-base file stores those columns' bytes,
``load_kb`` keeps the arrays it reads, and the index keeps the table
itself. A lookup by id slices an ``EmbeddingVector`` out of the columns
anew.

Every vector enters through a provider's ``embed``, ``load_kb`` or
``VectorTable.of``, and each holds it to ``within_bound``: finite values
of a norm at most ``MAX_NORM = 2**510``, which keeps ``knn``'s scores
finite (see ``embedding``).
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from collections.abc import Mapping
from itertools import compress, islice
from operator import lt
from typing import Iterable, NamedTuple, Optional, Sequence

#: The largest norm a vector may have (see the module docstring).
MAX_NORM = 2.0 ** 510


class DimensionMismatchError(Exception):
    """Vectors of different dimensions were combined."""


#: The ``array`` type code of an unsigned 32-bit int, a bucket's type.
BUCKET_TYPE = {8 * array(code).itemsize: code for code in "IL"}[32]


class _VectorFields(NamedTuple):
    buckets: array
    values: array


class EmbeddingVector(_VectorFields):
    """A sparse vector: its nonzero buckets, ascending, and their values.

    Every bucket it does not list is 0.0; the dimension is the provider's
    (or the index's), not the vector's. Every way to build one (the
    constructor, ``_make`` and ``_replace``) stores the buckets as an
    ``array(BUCKET_TYPE)`` and the values as an ``array("d")``, and keeps
    an array that already has its field's type code as it is, not a copy.
    Buckets that no u32 can hold (a negative one, or one of 2**32 or more)
    stay a tuple of ints, which no index accepts and no knowledge base
    stores. A bucket that is no int, or a value that is no number, raises
    TypeError. The constructor checks no order, bound or length: that is
    for whoever stores the vector (``_vector_fault``, which
    ``VectorTable.of`` runs on every vector it takes).
    """

    __slots__ = ()

    def __new__(cls, buckets: Iterable[int], values: Iterable[float]) -> "EmbeddingVector":
        # each is made a list first: an array fills fastest from one
        if type(buckets) is not array or buckets.typecode != BUCKET_TYPE:
            buckets = list(buckets)
            try:
                buckets = array(BUCKET_TYPE, buckets)
            except OverflowError:
                buckets = tuple(buckets)
        if type(values) is not array or values.typecode != "d":
            values = array("d", list(values))
        return tuple.__new__(cls, (buckets, values))

    @classmethod
    def _make(cls, iterable: Iterable) -> "EmbeddingVector":
        return cls(*iterable)

    @classmethod
    def from_dense(cls, values: Sequence[float]) -> "EmbeddingVector":
        """The pair of a dense vector, with its zeros dropped."""
        buckets = array(BUCKET_TYPE, compress(range(len(values)), values))
        return cls(buckets, map(values.__getitem__, buckets))

    def dense(self, dimension: int) -> tuple[float, ...]:
        """All ``dimension`` values as a tuple, every zero the one shared 0.0.

        Raises DimensionMismatchError for a bucket outside ``range(dimension)``.
        """
        buckets = self.buckets
        if buckets and (min(buckets) < 0 or max(buckets) >= dimension):
            raise DimensionMismatchError(
                f"buckets {min(buckets)}..{max(buckets)} outside dimension {dimension}")
        values = [0.0] * dimension
        for bucket, value in zip(buckets, self.values):
            values[bucket] = value
        return tuple(values)


def within_bound(values: Sequence[float]) -> bool:
    """Whether ``values`` are finite with a norm of at most MAX_NORM (a NaN compares false)."""
    return math.hypot(*values) <= MAX_NORM


#: The largest embedding dimension a knowledge base can hold: every bucket
#: lies below it and is stored as a u32.
MAX_DIMENSION = 2 ** 32


def _ascending(items: Sequence) -> bool:
    """Whether ``items`` are strictly ascending, so also free of repeats."""
    return all(map(lt, items, islice(items, 1, None)))


def _vector_fault(vector: Sequence, dimension: int) -> Optional[str]:
    """Why the (buckets, values) pair ``vector`` cannot be a row of a
    knowledge base of ``dimension``, or None: it needs one value per
    bucket, its buckets strictly ascending in ``range(dimension)`` and its
    values ``within_bound``."""
    buckets, values = vector
    if len(buckets) != len(values):
        return "vector has more buckets than values, or fewer"
    if buckets and not (0 <= buckets[0] and buckets[-1] < dimension and _ascending(buckets)):
        return f"vector buckets are not strictly ascending in range({dimension})"
    if not within_bound(values):
        return "vector values are not of norm <= 2**510"
    return None


class VectorTable(Mapping):
    """function id -> its sparse vector, every vector held in three columns.

    ``ids`` ascend, and row ``i`` is the vector of ``ids[i]``: its buckets
    are ``bucket_column[starts[i]:starts[i + 1]]`` and its values the same
    slice of ``value_column``. ``starts`` has one item more than ``ids``,
    the first 0 and the last ``len(bucket_column)``; it and
    ``bucket_column`` are u32 arrays, and ``value_column`` an
    ``array("d")``. Every row can be a knowledge-base row
    (``_vector_fault``) of some dimension up to ``MAX_DIMENSION``: its
    buckets are strictly ascending and its values ``within_bound``. The
    table keeps no object per vector: ``[id]`` and ``row(i)`` slice an
    ``EmbeddingVector`` out of the columns anew. The constructor keeps
    columns that already hold all this, as ``load_kb`` reads them; ``of``
    checks and gathers any mapping's vectors. Equality compares the
    columns; a table equals another mapping that holds the same vectors. A
    table is not changed once made.
    """

    __slots__ = ("ids", "starts", "bucket_column", "value_column")

    def __init__(self, ids: list[str], starts: array, bucket_column: array,
                 value_column: array) -> None:
        self.ids, self.starts = ids, starts
        self.bucket_column, self.value_column = bucket_column, value_column

    @classmethod
    def of(cls, vectors: Mapping[str, Sequence]) -> "VectorTable":
        """The table of ``vectors``, each a (buckets, values) pair. ValueError,
        naming the function, for a vector that no table holds (see the
        class): one ``_vector_fault`` refuses at ``MAX_DIMENSION``, or one
        that is not a pair of int buckets and float values."""
        rows = _TableRows()
        for function_id in sorted(vectors):
            vector = vectors[function_id]
            try:
                fault = _vector_fault(vector, MAX_DIMENSION)
                if fault is None:
                    rows.add(function_id, vector)
            except (TypeError, ValueError, OverflowError):
                fault = "vector is not a pair of int buckets and float values"
            if fault is not None:
                raise ValueError(f"function {function_id!r}: {fault}")
        return rows.table()

    def row(self, position: int) -> EmbeddingVector:
        """Row ``position``'s vector, sliced out of the columns."""
        start, end = self.starts[position], self.starts[position + 1]
        # the slices already have the fields' types, so nothing is left to coerce
        return tuple.__new__(EmbeddingVector, (self.bucket_column[start:end],
                                               self.value_column[start:end]))

    def _position(self, function_id: str) -> int:
        """The row of ``function_id``, or -1 if the table has none."""
        ids = self.ids
        position = bisect_left(ids, function_id) if type(function_id) is str else len(ids)
        return position if position < len(ids) and ids[position] == function_id else -1

    def __getitem__(self, function_id: str) -> EmbeddingVector:
        position = self._position(function_id)
        if position < 0:
            raise KeyError(function_id)
        return self.row(position)

    def __contains__(self, function_id: object) -> bool:
        return self._position(function_id) >= 0

    def __iter__(self):
        return iter(self.ids)

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, VectorTable):
            return (self.ids == other.ids and self.starts == other.starts
                    and self.bucket_column == other.bucket_column
                    and self.value_column == other.value_column)
        return Mapping.__eq__(self, other)

    __hash__ = None  # type: ignore[assignment]


class _TableRows:
    """Rows gathered into a table's columns in any order, each function id
    once; ``table`` puts them in ascending id order."""

    __slots__ = ("ids", "starts", "bucket_column", "value_column")

    def __init__(self) -> None:
        self.ids: list[str] = []
        self.starts, self.bucket_column, self.value_column = (
            array(BUCKET_TYPE, [0]), array(BUCKET_TYPE), array("d"))

    def add(self, function_id: str, vector: Sequence) -> None:
        """Append ``vector``, a (buckets, values) pair that is a row of some
        table (see ``VectorTable``), as the row of ``function_id``."""
        buckets, values = vector
        self.bucket_column.extend(buckets)
        self.value_column.extend(values)
        self.starts.append(len(self.bucket_column))
        self.ids.append(function_id)

    def table(self) -> VectorTable:
        """The rows as a table: these columns themselves if the ids already
        ascend, else the rows copied over in ascending id order."""
        ids = self.ids
        rows = self
        if not _ascending(ids):
            rows = _TableRows()
            for position in sorted(range(len(ids)), key=ids.__getitem__):
                start, end = self.starts[position], self.starts[position + 1]
                rows.add(ids[position], (self.bucket_column[start:end],
                                         self.value_column[start:end]))
        return VectorTable(rows.ids, rows.starts, rows.bucket_column, rows.value_column)
