"""Embedding providers and the exact nearest-neighbor index.

A provider has a ``name``, a ``dimension`` and ``embed(pairs)``, which
returns one vector per (source text, declaration tokens) pair. It is the
one embedding call on the pipeline: ``build_kb`` makes one per corpus file
for the KB rows, and ``repair.retrieve`` one per query, both with the
tokens the function's parse already holds, so a query vector and a KB
vector come from the same computation and neither lexes again. KB
metadata records the provider's name, a key of ``PROVIDERS``.

Vectors are sparse up to the rescore, ``vectors.EmbeddingVector``s, and a
knowledge base keeps them in a ``vectors.VectorTable``, which the index
keeps as it is, not a copy. Only ``knn`` pads a vector out to a dense row:
its query, and an index row the first time it rescores it. Every vector is
``within_bound`` (see ``vectors``), so ``|q|**2 + |r|**2 <= 2**1021``, and
``knn``'s scores, below ``4 * (|q|**2 + max |r|**2)``, cannot overflow.

The reference provider is a deterministic hashing embedder: tokens are
hashed into a fixed number of buckets, counts are log-damped, and the
vector is L2-normalized. It reads tokens, not text: it looks each token's
bucket up in a table shared by every instance of the same dimension (one
``model.sha256`` per distinct text per process: CPython's built-in SHA-256,
which on such short texts is faster than OpenSSL's and loads no libcrypto),
counts the tokens per bucket in one ``Counter`` call, and computes weights
and the norm over the nonzero buckets only, in ascending bucket order, so
its values are bit-identical to the dense formula's over every bucket. The
remote HTTP provider embeds the source texts, one request per call, and
drops the zeros of the dense vectors it receives. It imports ``requests``
on first use, so a run that never makes one loads no HTTP client.

Retrieval is exact: ``knn`` returns the ids and ``math.dist`` distances
that a flat L2 scan of every dense row returns, bit for bit. The index is
built once per knowledge base (``repair.retrieve`` keeps it on the graph).
Next to the sparse vectors it holds each row's squared norm and, per
bucket, one packed int: the bucket's column quantized to fixed point, row
``i`` in lane ``i`` of W bits, so that one big-int multiply-add scores
every row on that bucket at once. W is 32 unless the index's dimension or
vectors would leave a row or a query fewer than 10 fraction bits, and then
64. ``knn`` filters and then refines, after the VA-file's exact search
(Weber, Schek and Blott, VLDB 1998): it scores every row on the query's
nonzero buckets only, as ``|r|**2 - 2 q.r`` with q and r quantized, in one
multiply-add per such bucket and one ``to_bytes`` that reads every row's
lane out. The rows within twice the quantization error bound E, plus a
float margin of 1e-9 * (|q|**2 + max |r|**2 + 1), of the n-th smallest
score survive, which provably keeps every true top-n row (``_survivors``
has the bound and the proof). The first cut stays in the integer lanes:
from the n-th largest lane sum and the smallest and largest squared norms
it derives a lane threshold, and one big-int subtract-and-mask reads out
the rows at or above it; only those candidates, about as many as survive,
are scored in floats. Only the survivors are rescored with ``math.dist``
over their dense rows, each padded on its first rescore and kept, and
selected stably, ties going to the lower id. Every row is rescored, with
no filter, when ``n`` covers the index.

``knn`` returns each neighbor as a ``Candidate`` that holds the KB's own
``FunctionUnit`` and its distance. ``repair.retrieve`` always asks for
``DEFAULT_POOL_SIZE`` (50) neighbors, a constant, not an option.
"""

from __future__ import annotations

import heapq
import math
import os
import sys
import threading
from array import array
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, compress, islice, repeat
from operator import add, mul, sub, truediv
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Sequence

from .ingest import Token, lex  # noqa: F401  (bench/run.py's traced run wraps this lex)
from .model import CodedError, FunctionUnit, sha256
from .vectors import (
    DimensionMismatchError,
    EmbeddingVector,
    VectorTable,
    within_bound,
)

if TYPE_CHECKING:
    import requests

DEFAULT_DIMENSION = 256
DEFAULT_POOL_SIZE = 50

EMBED_URL_VAR = "SCPATCHER_EMBED_URL"
EMBED_KEY_VAR = "SCPATCHER_EMBED_KEY"


class ProviderError(CodedError):
    """Embedding provider failure.

    ``code`` is one of ``RemoteUnavailable`` or ``DimensionMismatch``, or
    ``MalformedReply`` when ``build_kb`` gets a reply it cannot store.
    """


class EmptyIndexError(Exception):
    """Retrieval attempted against an index with no entries."""


class _BucketTable(dict):
    """token text -> its bucket of ``dimension``: the first 8 bytes of the
    text's SHA-256, big-endian, modulo ``dimension``, hashed on first use."""

    def __init__(self, dimension: int):
        super().__init__()
        self.dimension = dimension

    def __missing__(self, text: str) -> int:
        digest = sha256(text.encode("utf-8")).digest()
        bucket = self[text] = int.from_bytes(digest[:8], "big") % self.dimension
        return bucket


#: dimension -> its bucket table, shared by every HashingEmbedder. A table
#: holds one entry per distinct token text seen (3,384, about 0.3 MB, for
#: the 1,000-file seed-7 benchmark corpus).
_BUCKETS: dict[int, _BucketTable] = {}


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

        Each bucket's count is the number of its tokens, counted in one
        ``Counter`` call over the tokens' buckets. A zero bucket adds
        exactly 0.0 to the norm's sum and divides to 0.0, so summing the
        nonzero weights in ascending bucket order gives the same floats as
        summing all of them. A text with no tokens is the basis vector of
        bucket 0.
        """
        table = _BUCKETS.get(self.dimension)
        if table is None:
            table = _BUCKETS[self.dimension] = _BucketTable(self.dimension)
        # literal values carry no structure
        per_bucket = Counter(map(table.__getitem__, (
            "LIT" if tok.kind in ("number", "string") else tok.text for tok in tokens)))
        if not per_bucket:
            return EmbeddingVector((0,), (1.0,))
        order = sorted(per_bucket)
        weights = list(map(math.log1p, map(per_bucket.__getitem__, order)))
        norm = math.sqrt(sum(map(mul, weights, weights)))
        return EmbeddingVector(order, map(truediv, weights, repeat(norm)))


class RemoteEmbedder:
    """HTTP adapter: POST {model, input} to a vector endpoint.

    The endpoint must answer {"vectors": [[...], ...]}, one dense vector
    per input text, of the configured dimension, made of JSON numbers and
    ``within_bound``; each is returned with its zeros dropped.

    An injected ``session`` serves every thread. Without one, each thread
    that calls ``embed`` makes its own ``requests.Session`` on its first
    call, so concurrent ``evaluate`` workers share no connection pool.
    """

    name = "remote"

    def __init__(self, url: Optional[str] = None, api_key: Optional[str] = None,
                 model: str = "default", dimension: int = DEFAULT_DIMENSION,
                 timeout: float = 30.0, session: Optional[requests.Session] = None):
        self.url = url or os.environ.get(EMBED_URL_VAR, "")
        if not self.url:
            raise ProviderError("RemoteUnavailable",
                                f"no endpoint configured (set {EMBED_URL_VAR})")
        self.api_key = api_key if api_key is not None else os.environ.get(EMBED_KEY_VAR)
        self.model = model
        self.dimension = dimension
        self.timeout = timeout
        self._session = session
        self._local = threading.local()

    def embed(self, functions: Sequence[tuple[str, Sequence[Token]]]
              ) -> list[EmbeddingVector]:
        """One vector per (source text, declaration tokens) pair, in one request."""
        import requests

        session = self._session or getattr(self._local, "session", None)
        if session is None:
            session = self._local.session = requests.Session()
        texts = [text for text, _tokens in functions]
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        try:
            response = session.post(
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


class _PaddedRows(dict):
    """row position -> that row of ``vectors`` padded out to ``dimension``
    values, every zero the one shared 0.0: padded on the first lookup and
    kept."""

    def __init__(self, vectors: VectorTable, dimension: int):
        super().__init__()
        self.vectors = vectors
        self.dimension = dimension

    def __missing__(self, position: int) -> tuple[float, ...]:
        row = self[position] = self.vectors.row(position).dense(self.dimension)
        return row


@dataclass(frozen=True)
class VectorIndex:
    """Exact-search index: one row per function, in function-id order.

    ``vectors`` is the ``VectorTable`` of those rows, row ``i`` the vector
    of ``functions[i]``: for an index from ``index_from_graph``, the
    knowledge base's own table, not a copy. ``rows`` maps a row's position
    to its dense row, ``dimension`` values, every zero the one shared 0.0:
    ``knn`` pads a row there the first time it rescores it, so it holds
    only the rows that some query has rescored. Two threads may pad one row
    at once; both pads are equal, and either is kept.

    ``packed`` holds, for ``knn``'s filter, one int per bucket: the
    bucket's column of quantized values, row ``i`` in lane ``i`` of
    ``width`` (W) bits, bits ``W * i`` up to ``W * i + W - 1``. With ``M =
    2 ** scale``, the smallest power of two at least every ``|value|`` in
    the index, and ``d_r = row_bits``, a value ``v`` is stored as the int
    ``round(v * 2**d_r / M)``. The int is the exact sum of those ints, row
    i's shifted left by ``W * i``, so a negative value borrows from the
    lanes above it; that is harmless, because the filter only adds such
    ints, scaled, and reads the lanes out of the sum (see ``_survivors``).
    A column with no nonzero value is the int 0. ``build_index`` picks W
    and d_r so that every row's ints have a norm of at most ``2**(W/2 -
    1)``, and ``query_limit`` is the largest norm a query's ints may have
    for every lane sum to stay within ``2**(W - 2)`` in magnitude.

    ``sq_norms`` holds each row's squared norm, ``max_sq_norm`` the largest
    of them, at most ``vectors.MAX_NORM ** 2``, and ``min_sq_norm`` the
    smallest: a row's filter score lies between the scores its lane sum
    gets with those two norms, which lets ``_survivors`` pick its
    candidates from the lanes. ``offset`` is the int with bit W - 1 of
    every lane set, which the filter adds to its sum and masks its lanes
    with. The garbage collector tracks no int and no ``array``, and stops
    tracking a tuple of floats at the first collection it survives, so its
    full collections walk none of the packed columns, the vector columns or
    the padded rows.
    """

    dimension: int
    functions: list[FunctionUnit]
    vectors: VectorTable
    rows: _PaddedRows = field(compare=False)  # what some query has padded so far
    packed: tuple[int, ...]
    width: int
    scale: int
    row_bits: int
    query_limit: float
    sq_norms: tuple[float, ...]
    max_sq_norm: float
    min_sq_norm: float
    offset: int

    def __len__(self) -> int:
        return len(self.functions)


#: The fewest fraction bits a row or a query may get in 32-bit lanes: an
#: index that would give either fewer has 64-bit lanes.
MIN_FRACTION_BITS = 10

#: lane width in bits -> the ``array`` type code of a signed int that wide
_LANE_TYPES = {8 * array(code).itemsize: code for code in "hilq"}


def _fraction_bits(ratio: float, count: int, limit: float) -> int:
    """The most fraction bits d with ``ratio * 2**d + sqrt(count) / 2 <= limit``,
    or -1 if there are none.

    A vector of at most ``count`` nonzero values, each at most ``M = 2**e``
    in magnitude, and of a norm of at most ``ratio * M``, quantized as
    ``round(v * 2**d / M)`` per value, has ints of a norm of at most that
    sum, since rounding moves each value by at most 1/2; so at most
    ``limit``. A ``ratio`` taken as ``math.hypot`` of the values, plus
    2**-1074, over M is such a bound up to one unit in its last place,
    which the relative slack of 2**-40 taken off here covers, as it covers
    the float steps below. A nonzero vector has ``ratio > 1/2``, because
    M is less than twice its largest value, and an all-zero one quantizes
    to zeros at any d, so a smaller ratio is taken as 1/2.
    """
    room = (limit - math.sqrt(count) / 2) / max(ratio, 0.5) * (1 - 2.0 ** -40)
    return math.frexp(room)[1] - 1 if room > 0 else -1


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


def _lanes(column: array, width: int) -> int:
    """The int whose ``width``-bit lanes, lowest first, are the low
    ``width`` bits of the floats in ``column``, in order."""
    view = memoryview(_little_endian(column)).cast("B").cast(_LANE_TYPES[width])
    return int.from_bytes(view[::64 // width], "little")


def build_index(functions: Sequence[FunctionUnit], vectors: Mapping[str, EmbeddingVector],
                dimension: int) -> VectorIndex:
    """Index every function that has a vector: its vector, its squared norm
    and its values in the packed columns. No row is padded here.

    ``vectors`` is read as a ``VectorTable``: a table whose rows are
    exactly those functions' is kept as it is, and any other mapping is
    made one (``VectorTable.of``, which raises ValueError for a vector that
    no table holds). A bucket outside ``range(dimension)`` raises
    DimensionMismatchError.

    Lane width and row bits. Let ``ratio`` be ``max |r| / M`` and ``most``
    the most nonzero values a row has. For W = 32, and then 64, ``d_r =
    _fraction_bits(ratio, most, 2**(W/2 - 1))`` keeps every row's ints
    within ``row_norm = ratio * 2**d_r + sqrt(most) / 2 <= 2**(W/2 - 1)``,
    and ``query_limit = 2**(W - 2) / row_norm``. A query's ints get the
    most fraction bits ``d_q`` that keep them within ``query_limit``
    (``_query_ints``), at least those of a dense query of ``dimension``
    equal values, whose ratio, ``sqrt(dimension)``, is the largest any
    query can have. W = 32 is taken if d_r and those worst-case d_q are
    both at least ``MIN_FRACTION_BITS``.

    Rounding. Each column is rounded by float addition. With ``u = M /
    2**d_r`` and ``R = (1.5 * 2**52 + 2**31) * u``, a float ``v`` with
    ``|v| <= M`` gives ``v + R`` in ``[2**52, 2**53) * u``, where floats
    are spaced u apart, so the addition rounds ``v / u`` to the nearest
    integer q, ties to even, as ``round`` does (R / u is even), and ``v +
    R`` is ``(1.5 * 2**52 + 2**31 + q) * u``. Its 64 bits are R's plus q,
    and its low 32 bits, the low bits of its significand ``2**51 + 2**31 +
    q``, are ``2**31 + q``, R's plus q again (``|q| <= 2**(W/2 - 1)``). A
    column's values go into an array of floats as ``v + R``, every other
    slot holds R, and the array read as one int of W-bit lanes, each the
    low W bits of a float, is the packed column plus R's lanes, which one
    subtraction removes. R must be a normal float, so d_r is at most
    ``scale + 1074``.
    """
    kept = [fn for fn in sorted(functions, key=lambda f: f.id) if fn.id in vectors]
    ids = [fn.id for fn in kept]
    table = vectors
    if type(table) is not VectorTable or table.ids != ids:
        table = VectorTable.of({function_id: vectors[function_id] for function_id in ids})
    starts, buckets, values = table.starts, table.bucket_column, table.value_column
    if buckets and max(buckets) >= dimension:
        raise DimensionMismatchError(
            f"buckets {min(buckets)}..{max(buckets)} outside dimension {dimension}")
    # a zero adds exactly nothing to hypot, so the nonzero values give the row's norm
    norms = [math.hypot(*values[start:end])
             for start, end in zip(starts, islice(starts, 1, None))]
    sq_norms = tuple(norm ** 2 for norm in norms)
    top = max(max(values, default=0.0), -min(values, default=0.0))
    scale = _scale(top)
    ratio = math.ldexp(max(norms, default=0.0) + 2.0 ** -1074, -scale)
    counts = list(map(sub, islice(starts, 1, None), starts))
    most = max(counts, default=0)
    for width in (32, 64):
        row_bits = _fraction_bits(ratio, most, 2.0 ** (width // 2 - 1))
        row_norm = math.ldexp(max(ratio, 0.5), row_bits) + math.sqrt(most) / 2
        query_limit = 2.0 ** (width - 2) / row_norm
        worst_query = _fraction_bits(math.sqrt(dimension), dimension, query_limit)
        if min(row_bits, worst_query) >= MIN_FRACTION_BITS:
            break
    row_bits = min(row_bits, scale + 1074)
    rounder = math.ldexp(1.5 * 2 ** 52 + 2 ** 31, scale - row_bits)
    blank = array("d", [rounder]) * len(kept)
    columns = [array("d", blank) for _ in range(dimension)]
    row_of = chain.from_iterable(map(repeat, range(len(counts)), counts))
    for i, j, value in zip(row_of, buckets, values):
        columns[j][i] = value + rounder
    rounders = _lanes(blank, width)
    packed = []
    for j, column in enumerate(columns):
        packed.append(_lanes(column, width) - rounders)
        columns[j] = None  # free each array once it is read
    offset = int.from_bytes((bytes(width // 8 - 1) + b"\x80") * len(kept), "little")
    return VectorIndex(dimension, kept, table, _PaddedRows(table, dimension), tuple(packed),
                       width, scale, row_bits, query_limit, sq_norms,
                       max(sq_norms, default=0.0), min(sq_norms, default=0.0), offset)


def index_from_graph(graph) -> VectorIndex:
    """Build the index straight from a knowledge base's sparse vectors."""
    return build_index(graph.functions(), graph.vectors, meta_dimension(graph.embedder_meta))


def _query_ints(index: VectorIndex, values: Sequence[float]) -> tuple[int, int, list[int]]:
    """A query's ``eq``, its fraction bits ``d_q`` and its values quantized.

    With ``Mq = 2**eq``, its largest ``|value|`` rounded up to a power of
    two, each value ``v`` becomes ``round(v * 2**d_q / Mq)``; d_q is the
    most fraction bits that keep the norm of those ints within
    ``index.query_limit`` (see ``_fraction_bits``).
    """
    q_scale = _scale(max(map(abs, values)))
    ratio = math.ldexp(math.hypot(*values) + 2.0 ** -1074, -q_scale)
    q_bits = _fraction_bits(ratio, len(values), index.query_limit)
    shift = q_bits - q_scale
    return q_scale, q_bits, [round(math.ldexp(v, shift)) for v in values]


def _survivors(index: VectorIndex, query: EmbeddingVector, q_sq: float, n: int) -> list[int]:
    """The rows that may be among the ``n`` nearest to ``query``, ascending.

    Every row r is scored as ``a(r) = |r|**2 - 2 q'.r'``, where q' and r'
    are the query and the row quantized, restricted to the query's nonzero
    buckets S. The query is quantized like the rows, with its own ``Mq =
    2**eq`` and its own fraction bits d_q (``_query_ints``). The norm of
    its ints is at most ``index.query_limit``, which is ``2**(W-2)`` over
    a bound on the norm of every row's ints (see ``build_index``), so by
    Cauchy-Schwarz the lane sum ``s_i``, the sum of q_int[j] * r_int[j]
    over S, has ``|s_i| <= 2**(W-2)``: a W-bit lane could hold twice as
    much, and the bit left over is the headroom that ``_candidates``'
    subtraction of L needs. In one big-int multiply-add per bucket of S,

        acc = OFFSET + sum over j in S of q_int[j] * packed[j]

    where OFFSET (``index.offset``) has bit W-1 of every lane set, holds
    ``2**(W-1) + s_i`` in lane i. Big-int arithmetic is exact and linear,
    so the borrows of negative columns and products cancel, and each lane
    of acc is in ``[0, 2**W)``: the lanes are the base-2**W digits of acc.
    Flipping bit W-1 of each lane turns ``2**(W-1) + s_i`` into the two's
    complement of ``s_i``, and one ``to_bytes`` reads every ``s_i`` out at
    once. Then ``q'.r' = s_i * M * Mq / 2**(d_r + d_q)``, and the float
    score is ``a(r) = |r|**2 + s_i * unit`` with ``unit = -2 * M * Mq /
    2**(d_r + d_q)``, a negative power of two.

    Error bound. Rounding moves each value by at most half a unit, so
    ``|r' - r| <= dr = M * 2**-(d_r+1)`` and ``|q' - q| <= dq = Mq *
    2**-(d_q+1)`` per bucket. On S, ``q'.r' - q.r = q.(r' - r) + (q' -
    q).r + (q' - q).(r' - r)``, and q is 0 off S, so by Cauchy-Schwarz

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
    with a(r) <= bound = t + 2E + 1e-9 * (|q|**2 + max |r|**2 + 1)
    survives; the margin is far above the float errors (its 1 above the
    underflow), so every true top-n row survives.

    Candidates. Only the rows with ``s_i >= L`` are scored in floats, for
    an integer L that ``_candidates`` finds from the lanes alone. Turning
    s_i into a float, multiplying by the negative unit and adding a norm
    are each monotone, so a(r) falls as s_i grows, and:
    - the n rows of the n largest lane sums, the n-th being S_n, each score
      at most ``t_up = max |r|**2 + S_n * unit``, so ``t <= t_up`` and
      ``bound <= B``, the same sum as bound with t_up for t;
    - every row scores ``a(r) >= A(s_i)``, with ``A(s) = min |r|**2 + s *
      unit`` in the same float operations, and A falls as s grows.
    L is accepted only if ``A(L - 1) > B``. Then a row with ``s_i < L``
    has ``a(r) >= A(s_i) >= A(L - 1) > B >= bound`` and cannot survive.
    And ``A(S_n) <= t_up <= B`` gives ``L <= S_n``, so the candidates hold
    the n rows that set t as well: t, bound and the survivors are those
    of scoring every row, bit for bit.

    L is ``floor((B' - min |r|**2) / unit)``, where B' is B widened by
    ``2**-40 * (|B| + min |r|**2)``. The division, the conversion of an
    s_i of up to 2**(W-2) to a float and the sum in A each round by at
    most 2**-53 of those magnitudes, so with the widening ``A(L - 1) > B``
    holds unless a step underflows. The widening is far below the 1e-9
    margin, so it adds no candidate in practice: on the seed-7 benchmark
    KB, as many rows are candidates as survive. Where ``unit`` underflows
    to 0, the quotient is not finite, ``L <= -2**(W-2)`` or ``A(L - 1) >
    B`` fails, every row is a candidate, as every row was scored before.
    """
    count = len(index.vectors)
    buckets, values = query
    margin = 1e-9 * (q_sq + index.max_sq_norm + 1.0)
    if not buckets:
        rows, approx, error = range(count), index.sq_norms, 0.0
    else:
        q_scale, q_bits, ints = _query_ints(index, values)
        width = index.width
        acc = sum(map(mul, ints, map(index.packed.__getitem__, buckets)), index.offset)
        lanes = _little_endian(array(_LANE_TYPES[width],
                                     (acc ^ index.offset).to_bytes(width // 8 * count, "little")))
        unit = math.ldexp(-2.0, index.scale + q_scale - index.row_bits - q_bits)
        root = math.sqrt(len(buckets))
        d_r = math.ldexp(1.0, index.scale - index.row_bits - 1)
        d_q = math.ldexp(1.0, q_scale - q_bits - 1)
        error = 2.0 * (d_r * root * math.sqrt(q_sq) + d_q * root * math.sqrt(index.max_sq_norm)
                       + len(buckets) * d_r * d_q)
        rows = range(count)
        if unit:
            limit = index.max_sq_norm + heapq.nlargest(n, lanes)[-1] * unit + 2.0 * error + margin
            rows = _candidates(index, acc, unit, limit)
        approx = list(map(add, map(index.sq_norms.__getitem__, rows),
                          map(mul, map(lanes.__getitem__, rows), repeat(unit))))
    bound = heapq.nsmallest(n, approx)[-1] + 2.0 * error + margin
    return list(compress(rows, map(bound.__ge__, approx)))


def _candidates(index: VectorIndex, acc: int, unit: float, limit: float) -> Sequence[int]:
    """The rows whose lane sum s_i is at least L, ascending: every row that
    can score ``|r|**2 + s_i * unit <= limit`` (see ``_survivors``).

    Lane i of ``acc - L * ones``, with a 1 at the bottom of every lane, is
    ``2**(W-1) + s_i - L``; for ``-2**(W-2) < L <= 2**(W-2)`` it lies in
    ``[0, 2**W)``, so no lane borrows, and its bit W-1 is set exactly when
    ``s_i >= L``. Masked with OFFSET, the top byte of each lane is that bit.
    """
    count, width = len(index.vectors), index.width
    low = index.min_sq_norm
    quotient = (limit + (abs(limit) + low) * 2.0 ** -40 - low) / unit
    if math.isfinite(quotient):
        threshold = math.floor(quotient)
        if threshold > -2 ** (width - 2) and low + (threshold - 1) * unit > limit:
            offset = index.offset
            flags = ((acc - threshold * (offset >> width - 1)) & offset).to_bytes(
                width // 8 * count, "little")
            return list(compress(range(count), flags[width // 8 - 1::width // 8]))
    return range(count)


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
    rescored with ``math.dist`` over their dense rows, which
    ``index.rows`` pads on a row's first rescore, so ids and ``s_sem``
    equal a full scan's bit for bit. Every row is rescored, with no
    filter, when ``n`` covers the index. The query, like every row, must
    be ``within_bound``, so the scores cannot overflow.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not index.vectors:
        raise EmptyIndexError("vector index has no entries")
    values = query.dense(index.dimension)
    positions: Sequence[int] = range(len(index.vectors))
    if n < len(positions):
        positions = _survivors(index, query, math.hypot(*query.values) ** 2, n)
    distances = list(map(math.dist, repeat(values), map(index.rows.__getitem__, positions)))
    # nsmallest is stable and the rows stay in id order, so ties go to the lower id
    nearest = heapq.nsmallest(n, range(len(distances)), key=distances.__getitem__)
    return [Candidate(index.functions[positions[p]], distances[p]) for p in nearest]
