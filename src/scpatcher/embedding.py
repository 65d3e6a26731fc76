"""Embedding providers and the exact nearest-neighbor index.

A provider has a ``name``, a ``dimension`` and ``embed(pairs)``, which
returns one vector per (source text, declaration tokens) pair. It is the
one embedding call on the pipeline: ``build_kb`` makes one per corpus file
for the KB rows, and ``repair.retrieve`` one per query, both with the
tokens the function's parse already holds, so a query vector and a KB
vector come from the same computation and neither lexes again. KB
metadata records the provider's name, a key of ``PROVIDERS``.

Vectors are sparse up to the index: an ``EmbeddingVector`` is the pair
(buckets, values) of its nonzero buckets, in ascending order, and their
values; every other bucket is 0.0. Providers return such pairs,
``PropertyGraph.vectors`` holds them and the knowledge-base file stores
them. Only ``build_index`` pads them out to dense rows, once per knowledge
base, and ``knn`` pads its query.

Every vector enters through a provider's ``embed`` or ``load_kb``, and
both hold it to ``within_bound``: finite values of a norm at most
``MAX_NORM = 2**510``. Then ``|q|**2 + |r|**2 <= 2**1021``, so ``knn``'s
scores, below ``4 * (|q|**2 + max |r|**2)``, cannot overflow.

The reference provider is a deterministic hashing embedder: tokens are
hashed into a fixed number of buckets, counts are log-damped, and the
vector is L2-normalized. It reads tokens, not text: it counts each distinct
token text once, looks its bucket up in a memo shared by every instance of
the same dimension (one SHA-256 per distinct text per process), and
computes weights and the norm over the nonzero buckets only, in ascending
bucket order, so its values are bit-identical to the dense formula's over
every bucket. The remote HTTP provider embeds the source texts, one request
per call, and drops the zeros of the dense vectors it receives.

Retrieval is exact: ``knn`` returns the ids and ``math.dist`` distances
that a flat L2 scan of every dense row returns, bit for bit. The index is
built once per knowledge base (``PropertyGraph.vector_index`` keeps it).
Next to the dense rows it holds each row's squared norm and, per bucket,
one packed int: the bucket's column quantized to fixed point, row ``i`` in
64-bit lane ``i``, so that one big-int multiply-add scores every row on
that bucket at once. ``knn`` filters and then refines, after the
VA-file's exact search: it scores every row on the query's nonzero buckets
only, as ``|r|**2 - 2 q.r`` with q and r quantized, in one multiply-add per
such bucket and one ``to_bytes`` that reads every row's lane out. The rows
within twice the quantization error bound E, plus a float margin of 1e-9 *
(|q|**2 + max |r|**2 + 1), of the n-th smallest score survive, which
provably keeps every true top-n row (``_survivors`` has the bound and the
proof). Only the survivors are rescored with ``math.dist`` over the dense
rows and selected stably, ties going to the lower id. Every row is
rescored, with no filter, when ``n`` covers the index.

``knn`` returns each neighbor as a ``Candidate`` that holds the KB's own
``FunctionUnit`` and its distance. ``repair.retrieve`` always asks for
``DEFAULT_POOL_SIZE`` (50) neighbors, a constant, not an option.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import os
import sys
from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import compress, repeat
from operator import add, mul
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

import requests

from .ingest import Token, lex  # noqa: F401  (bench/run.py's traced run wraps this lex)
from .model import FunctionUnit

DEFAULT_DIMENSION = 256
DEFAULT_POOL_SIZE = 50

EMBED_URL_VAR = "SCPATCHER_EMBED_URL"
EMBED_KEY_VAR = "SCPATCHER_EMBED_KEY"

#: The largest norm a vector may have (see the module docstring).
MAX_NORM = 2.0 ** 510


class ProviderError(Exception):
    """Remote embedding provider failure.

    ``code`` is one of ``RemoteUnavailable`` or ``DimensionMismatch``.
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class DimensionMismatchError(Exception):
    """Vectors of different dimensions were combined."""


class EmptyIndexError(Exception):
    """Retrieval attempted against an index with no entries."""


class EmbeddingVector(NamedTuple):
    """A sparse vector: its nonzero buckets, ascending, and their values.

    Every bucket it does not list is 0.0; the dimension is the provider's
    (or the index's), not the vector's.
    """

    buckets: tuple[int, ...]
    values: tuple[float, ...]

    @classmethod
    def from_dense(cls, values: Sequence[float]) -> "EmbeddingVector":
        """The pair of a dense vector, with its zeros dropped."""
        buckets = tuple(compress(range(len(values)), values))
        return cls(buckets, tuple(map(values.__getitem__, buckets)))

    def dense(self, dimension: int) -> tuple[float, ...]:
        """All ``dimension`` values, every zero the one shared 0.0.

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


#: dimension -> {token text: bucket}, shared by every HashingEmbedder. It
#: holds one entry per distinct token text seen (3,384, about 0.3 MB, for
#: the 1,000-file seed-7 benchmark corpus).
_BUCKETS: dict[int, dict[str, int]] = {}


class HashingEmbedder:
    """Deterministic local embedder: token buckets, log counts, unit norm."""

    name = "token-hash"

    def __init__(self, dimension: int = DEFAULT_DIMENSION):
        if dimension < 1:
            raise ValueError("dimension must be positive")
        self.dimension = dimension

    def embed(self, functions: Sequence[tuple[str, Sequence[Token]]]
              ) -> list[EmbeddingVector]:
        """One vector per (source text, declaration tokens) pair, from the tokens."""
        return [self._embed_tokens(tokens) for _text, tokens in functions]

    def _embed_tokens(self, tokens: Iterable[Token]) -> EmbeddingVector:
        """The sparse vector of a lexed text; its values equal the dense formula's.

        A zero bucket adds exactly 0.0 to the norm's sum and divides to
        0.0, so summing the nonzero weights in ascending bucket order gives
        the same floats as summing all of them. A text with no tokens is
        the basis vector of bucket 0.
        """
        # literal values carry no structure
        counts = Counter("LIT" if tok.kind in ("number", "string") else tok.text
                         for tok in tokens)
        dimension = self.dimension
        buckets = _BUCKETS.setdefault(dimension, {})
        per_bucket: dict[int, int] = {}
        for text, count in counts.items():
            bucket = buckets.get(text)
            if bucket is None:
                digest = hashlib.sha256(text.encode("utf-8")).digest()
                bucket = buckets[text] = int.from_bytes(digest[:8], "big") % dimension
            per_bucket[bucket] = per_bucket.get(bucket, 0) + count
        if not per_bucket:
            return EmbeddingVector((0,), (1.0,))
        order = tuple(sorted(per_bucket))
        weights = [math.log1p(per_bucket[bucket]) for bucket in order]
        norm = math.sqrt(sum(w * w for w in weights))
        return EmbeddingVector(order, tuple(w / norm for w in weights))


class RemoteEmbedder:
    """HTTP adapter: POST {model, input} to a vector endpoint.

    The endpoint must answer {"vectors": [[...], ...]}, one dense vector
    per input text, of the configured dimension, made of JSON numbers and
    ``within_bound``; each is returned with its zeros dropped.
    """

    name = "remote"

    def __init__(self, url: Optional[str] = None, api_key: Optional[str] = None,
                 model: str = "default", dimension: int = DEFAULT_DIMENSION,
                 timeout: float = 30.0, session: Optional[requests.Session] = None):
        self.url = url or os.environ.get(EMBED_URL_VAR, "")
        self.api_key = api_key if api_key is not None else os.environ.get(EMBED_KEY_VAR)
        self.model = model
        self.dimension = dimension
        self.timeout = timeout
        self._session = session or requests.Session()
        if not self.url:
            raise ProviderError("RemoteUnavailable",
                                f"no endpoint configured (set {EMBED_URL_VAR})")

    def embed(self, functions: Sequence[tuple[str, Sequence[Token]]]
              ) -> list[EmbeddingVector]:
        """One vector per (source text, declaration tokens) pair, in one request."""
        texts = [text for text, _tokens in functions]
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        try:
            response = self._session.post(
                self.url, json={"model": self.model, "input": texts},
                headers=headers, timeout=self.timeout)
            response.raise_for_status()
            body = response.json()
        except requests.RequestException as exc:
            raise ProviderError("RemoteUnavailable", f"{self.url}: {exc}") from None
        except ValueError as exc:
            raise ProviderError("RemoteUnavailable",
                                f"{self.url}: non-JSON response ({exc})") from None
        vectors = body.get("vectors") if isinstance(body, dict) else None
        if not isinstance(vectors, list) or len(vectors) != len(texts) \
                or not all(isinstance(values, list) for values in vectors):
            raise ProviderError("RemoteUnavailable",
                                f"{self.url}: malformed vector payload")
        out = []
        for values in vectors:
            if len(values) != self.dimension:
                raise ProviderError(
                    "DimensionMismatch",
                    f"provider returned dimension {len(values)}, expected {self.dimension}")
            # a JSON number, not a string or a bool (float() would take both)
            if not set(map(type, values)) <= {int, float}:
                raise ProviderError("RemoteUnavailable",
                                    f"{self.url}: non-numeric vector value")
            try:
                vector = EmbeddingVector.from_dense([float(v) for v in values])
            except OverflowError:  # a JSON int beyond every float
                vector = None
            if vector is None or not within_bound(vector.values):
                raise ProviderError("RemoteUnavailable", f"{self.url}: vector not finite "
                                    f"or of a norm above 2**510")
            out.append(vector)
        return out


def meta_dimension(meta: Optional[dict]) -> int:
    """The vector dimension KB metadata records, or DEFAULT_DIMENSION."""
    return int((meta or {}).get("dimension", DEFAULT_DIMENSION))


#: provider name, as KB metadata records it -> provider class
PROVIDERS = {provider.name: provider for provider in (HashingEmbedder, RemoteEmbedder)}


def provider_from_meta(meta: Optional[dict]):
    """Reconstruct the embedding provider recorded in KB metadata."""
    name = (meta or {}).get("name", HashingEmbedder.name)
    if name not in PROVIDERS:
        raise ProviderError("RemoteUnavailable", f"unknown embedder {name!r} in KB metadata")
    return PROVIDERS[name](dimension=meta_dimension(meta))


@dataclass(frozen=True)
class Candidate:
    """One retrieved reference: the KB's own function and its two scores.

    ``s_sem`` is the query distance ``knn`` measured; ``s_final`` is the
    rescored distance ``rerank`` sets on the references it selects.
    """

    fn: FunctionUnit
    s_sem: float
    s_final: Optional[float] = None


@dataclass(frozen=True)
class VectorIndex:
    """Exact-search index: one row per function, in function-id order.

    The functions' vectors arrive as sparse pairs; the index is where they
    become dense. ``rows`` holds each vector padded out to ``dimension``
    values for ``knn``'s rescore, every zero the one shared 0.0.

    ``packed`` holds, for ``knn``'s filter, one int per bucket: the
    bucket's column of quantized values, row ``i`` in 64-bit lane ``i``
    (bits ``64 * i`` up to ``64 * i + 63``). With ``M = 2 ** scale``, the
    smallest power of two at least every ``|value|`` in the index (and at
    least ``2**(F - 1074)``, see ``build_index``), and ``F =
    _fraction_bits(dimension)``, a value ``v`` is stored as the int
    ``round(v * 2**F / M)``, at most ``2**F`` in magnitude. The int is the
    exact sum of ``round(v * 2**F / M) << 64 * i`` over the column's rows,
    so a negative value borrows from the lanes above it; that is harmless,
    because the filter only adds such ints, scaled, and reads the lanes
    out of the sum (see ``_survivors``). A column with no nonzero value is
    the int 0.

    ``sq_norms`` holds each row's squared norm, and ``max_sq_norm`` the
    largest of them, at most ``MAX_NORM ** 2``. The garbage collector does
    not track ints, and stops tracking a tuple of floats or ints at the
    first collection it survives, so its full collections walk neither the
    packed columns nor the rows.
    """

    dimension: int
    functions: list[FunctionUnit]
    rows: list[tuple[float, ...]]
    packed: tuple[int, ...]
    scale: int
    sq_norms: tuple[float, ...]
    max_sq_norm: float

    def __len__(self) -> int:
        return len(self.rows)


def _fraction_bits(dimension: int) -> int:
    """F, the fraction bits of a quantized value, for vectors of ``dimension``.

    A lane sums at most ``dimension`` products of two values each at most
    ``2**F`` in magnitude, so its magnitude is at most ``dimension *
    2**(2F)``; with ``dimension <= 2**c``, ``2F <= 62 - c`` keeps that at
    most ``2**62``, inside the signed 64-bit range the filter reads.
    """
    return (62 - (dimension - 1).bit_length()) // 2


def _scale(magnitude: float) -> int:
    """The exponent of the smallest power of two at least ``magnitude``
    (a finite float >= 0); 0 for 0.0."""
    mantissa, exponent = math.frexp(magnitude)
    return exponent - (mantissa == 0.5)


def _little_endian(lanes: array) -> array:
    """``lanes``, with each item's bytes little-endian (swapped in place if need be)."""
    if sys.byteorder == "big":
        lanes.byteswap()
    return lanes


def build_index(functions: Sequence[FunctionUnit], vectors: Mapping[str, EmbeddingVector],
                dimension: int) -> VectorIndex:
    """Pair every function that has a vector with its dense row and packed columns.

    Rows, packed columns and norms all come from the (``within_bound``)
    sparse pairs; a bucket outside ``range(dimension)`` raises DimensionMismatchError.

    Each column is rounded by float addition. With ``R = 1.5 * 2**52 * M /
    2**F``, a float ``v`` with ``|v| <= M`` gives ``v + R`` in ``[2**52,
    2**53) * M / 2**F``, where floats are spaced ``M / 2**F`` apart, so the
    addition rounds ``v * 2**F / M`` to the nearest integer, ties to even,
    as ``round`` does, and adds it to R's bits. A column's values go into an
    array of floats as ``v + R``, every other slot holds R, and the array
    read as one int is the packed column plus R's bits in every lane, which
    one subtraction removes. R must be a normal float, so M is at least
    ``2**(F - 1074)``.
    """
    kept: list[FunctionUnit] = []
    pairs: list[EmbeddingVector] = []
    for fn in sorted(functions, key=lambda f: f.id):
        vector = vectors.get(fn.id)
        if vector is not None:
            kept.append(fn)
            pairs.append(vector)
    # a zero adds exactly nothing to hypot, so the nonzero values give the row's norm
    sq_norms = tuple(math.hypot(*vector.values) ** 2 for vector in pairs)
    fraction_bits = _fraction_bits(dimension)
    nonzero = [values for _buckets, values in pairs if values]
    top = max(max(map(max, nonzero), default=0.0), -min(map(min, nonzero), default=0.0))
    scale = max(_scale(top), fraction_bits - 1074)
    rounder = math.ldexp(1.5, 52 + scale - fraction_bits)
    blank = array("d", [rounder]) * len(pairs)
    columns = [array("d", blank) for _ in range(dimension)]
    rows = []
    for i, vector in enumerate(pairs):
        rows.append(vector.dense(dimension))
        for j, value in zip(*vector):
            columns[j][i] = value + rounder
    rounders = int.from_bytes(_little_endian(blank), "little")
    packed = []
    for j, column in enumerate(columns):
        packed.append(int.from_bytes(_little_endian(column), "little") - rounders)
        columns[j] = None  # free each array once it is read
    return VectorIndex(dimension, kept, rows, tuple(packed), scale, sq_norms,
                       max(sq_norms, default=0.0))


def index_from_graph(graph) -> VectorIndex:
    """Build the index straight from a knowledge base's sparse vectors."""
    return build_index(graph.functions(), graph.vectors, meta_dimension(graph.embedder_meta))


def _survivors(index: VectorIndex, query: EmbeddingVector, q_sq: float, n: int) -> list[int]:
    """The rows that may be among the ``n`` nearest to ``query``, ascending.

    Every row r is scored as ``a(r) = |r|**2 - 2 q'.r'``, where q' and r'
    are the query and the row quantized, restricted to the query's nonzero
    buckets S. The query is quantized like the rows, with its own
    ``Mq = 2**eq`` (its largest ``|value|`` rounded up to a power of two),
    so each of its ints is at most ``2**F`` too. In one big-int
    multiply-add per bucket of S,

        acc = OFFSET + sum over j in S of q_int[j] * packed[j]

    where OFFSET has bit 63 of every lane set, holds in lane i the sum
    ``s_i`` of q_int[j] * r_int[j], with
    ``|s_i| <= |S| * 2**(2F) <= 2**62`` (see ``_fraction_bits``), plus
    ``2**63`` from OFFSET. Big-int arithmetic is exact and linear, so the
    borrows of negative columns and products cancel, and each lane of acc
    is ``2**63 + s_i``, in ``[0, 2**64)``: the lanes are the base-2**64
    digits of acc. Flipping bit 63 of each lane turns ``2**63 + s_i`` into
    the two's complement of ``s_i``, and one ``to_bytes`` reads every
    ``s_i`` out at once. Then ``q'.r' = s_i * M * Mq / 2**(2F)``.

    Error bound. Rounding moves each value by at most half a unit, so
    ``|r' - r| <= dr = M * 2**-(F+1)`` and ``|q' - q| <= dq = Mq *
    2**-(F+1)`` per bucket. On S, ``q'.r' - q.r = q.(r' - r) + (q' - q).r
    + (q' - q).(r' - r)``, and q is 0 off S, so by Cauchy-Schwarz

        E = 2 * (dr * sqrt(|S|) * |q| + dq * sqrt(|S|) * max |r|
                 + |S| * dr * dq)

    bounds ``|a(r) - d(r)|`` for ``d(r) = |r|**2 - 2 q.r = |q - r|**2 -
    |q|**2``, in real arithmetic. The floats add at most about
    ``2**-50 * (|q|**2 + max |r|**2)``: the squared norms, the product and
    the sum in a(r), and E itself; where the scale of ``q'.r'`` underflows,
    they lose less than ``2**-1000``. ``math.dist``, which ranks the
    survivors, differs from the real distance by as little.

    Survival. Let t be the n-th smallest a(r). The n rows scored at most t
    have d(r) <= t + E, so the n-th smallest d is at most t + E. A row of
    the dense scan's top n has d(r) at most that n-th smallest, up to the
    float error of ``math.dist``, so a(r) <= t + 2E + that error. Every row
    with a(r) <= t + 2E + 1e-9 * (|q|**2 + max |r|**2 + 1) survives; the
    margin is far above the float errors (its 1 above the underflow), so
    every true top-n row survives.
    """
    count = len(index.rows)
    buckets, values = query
    if not buckets:
        approx = index.sq_norms
        error = 0.0
    else:
        fraction_bits = _fraction_bits(index.dimension)
        q_scale = _scale(max(map(abs, values)))
        shift = fraction_bits - q_scale
        offset = int.from_bytes((bytes(7) + b"\x80") * count, "little")  # bit 63 of each lane
        acc = sum(map(mul, [round(math.ldexp(v, shift)) for v in values],
                      map(index.packed.__getitem__, buckets)), offset)
        lanes = _little_endian(array("q", (acc ^ offset).to_bytes(8 * count, "little")))
        unit = math.ldexp(-2.0, index.scale + q_scale - 2 * fraction_bits)
        approx = list(map(add, index.sq_norms, map(mul, lanes, repeat(unit))))
        root = math.sqrt(len(buckets))
        d_r = math.ldexp(1.0, index.scale - fraction_bits - 1)
        d_q = math.ldexp(1.0, q_scale - fraction_bits - 1)
        error = 2.0 * (d_r * root * math.sqrt(q_sq) + d_q * root * math.sqrt(index.max_sq_norm)
                       + len(buckets) * d_r * d_q)
    bound = (heapq.nsmallest(n, approx)[-1] + 2.0 * error
             + 1e-9 * (q_sq + index.max_sq_norm + 1.0))
    return list(compress(range(count), map(bound.__ge__, approx)))


def knn(index: VectorIndex, query: EmbeddingVector, n: int = DEFAULT_POOL_SIZE
        ) -> list[Candidate]:
    """Exact nearest neighbors, ascending distance, id tiebreak.

    Each is a ``Candidate`` of the index's ``FunctionUnit`` itself (for an
    index from ``index_from_graph``, the KB payload) and its distance.

    The sparse ``query`` is padded out to the index's dimension (a bucket
    outside it raises DimensionMismatchError). Filter and refine:
    ``_survivors`` scores every row at once, in one big-int multiply-add
    per nonzero query bucket over the packed fixed-point columns, and keeps
    the rows that can still be among the ``n`` nearest; only they are
    rescored with ``math.dist`` over the full dense rows, so ids and
    ``s_sem`` equal a full scan's bit for bit. Every row is rescored, with
    no filter, when ``n`` covers the index. The query, like every row, must
    be ``within_bound``, so the scores cannot overflow.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not index.rows:
        raise EmptyIndexError("vector index has no entries")
    values = query.dense(index.dimension)
    rows, functions = index.rows, index.functions
    if n < len(rows):
        survivors = _survivors(index, query, math.hypot(*query.values) ** 2, n)
        rows = list(map(rows.__getitem__, survivors))
        functions = list(map(functions.__getitem__, survivors))
    distances = list(map(math.dist, repeat(values), rows))
    # nsmallest is stable and the rows stay in id order, so ties go to the lower id
    nearest = heapq.nsmallest(n, range(len(distances)), key=distances.__getitem__)
    return [Candidate(functions[position], distances[position]) for position in nearest]
