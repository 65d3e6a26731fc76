"""Embedding providers and the exact nearest-neighbor index.

A provider is a ``name``, a ``dimension`` and ``embed_functions``, which
returns one vector per (source text, declaration tokens) pair. It is the
one embedding call on the pipeline: ``build_kb`` makes one per corpus file
for the KB rows, and ``repair.retrieve`` one per query, both with the
tokens the function's parse already holds, so a query vector and a KB
vector come from the same computation and neither lexes again.

Vectors are sparse up to the index: an ``EmbeddingVector`` is the pair
(buckets, values) of its nonzero buckets, in ascending order, and their
values; every other bucket is 0.0. Providers return such pairs,
``PropertyGraph.vectors`` holds them and the knowledge-base file stores
them. Only ``build_index`` pads them out to dense rows, once per knowledge
base, and ``knn`` pads its query.

The reference provider is a deterministic hashing embedder: tokens are
hashed into a fixed number of buckets, counts are log-damped, and the
vector is L2-normalized. It reads tokens, not text: ``embed_tokens``
counts each distinct token text once, looks its bucket up in a memo shared
by every instance of the same dimension (one SHA-256 per distinct text per
process), and computes weights and the norm over the nonzero buckets only,
in ascending bucket order, so its values are bit-identical to the dense
formula's over every bucket. ``embed(text)`` is ``embed_tokens(lex(text))``.
The remote HTTP provider embeds the source texts, one request per call, and
drops the zeros of the dense vectors it receives.

Retrieval is exact: ``knn`` returns the ids and ``math.dist`` distances
that a flat L2 scan of every dense row returns, bit for bit. The index is
built once per knowledge base (``PropertyGraph.vector_index`` keeps it) and
also holds the rows column by column, with each row's squared norm. A hashing
vector has about 18 nonzero buckets of 256, so ``knn`` filters and then
refines, after the VA-file's exact search: it scores every row on the
query's nonzero buckets only, through a few compact columns that stay in
cache, as ``dist(q_S, r_S)**2 + |r|**2 - hypot(*r_S)**2``, which is the
squared distance in real arithmetic. The rows within a margin of
1e-9 * (|q|**2 + max |r|**2 + 1) of the n-th smallest such score survive;
the margin dwarfs the scores' float error, about 10 * 2**-53 *
(|q|**2 + |r|**2), so no true top-n row is lost. Only the survivors are
rescored with ``math.dist`` over the dense rows and selected stably,
ties going to the lower id. The filter is skipped, and every row
rescored, when ``n`` covers the index, when the query has more than
``dimension // FILTER_DIVISOR`` nonzero buckets (dense vectors, as a
remote provider may return, where the filter costs more than it saves), or
when a squared norm is not finite or near overflow.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import os
from collections import Counter
from dataclasses import dataclass
from itertools import compress, repeat, starmap
from operator import add, mul, sub
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

import requests

from .ingest import Token, lex
from .model import FunctionUnit, SignatureFeatures

DEFAULT_DIMENSION = 256
DEFAULT_POOL_SIZE = 50
# knn filters only queries with at most dimension // FILTER_DIVISOR nonzero
# buckets. Over 2,800 rows of 256 on a 2-vCPU VM the filter and refine take
# 2.2 ms at 18 nonzero buckets, 3.7 ms at 42 and 5.5 ms at 64; the full
# scan takes 4.7 ms.
FILTER_DIVISOR = 6

EMBED_URL_VAR = "SCPATCHER_EMBED_URL"
EMBED_KEY_VAR = "SCPATCHER_EMBED_KEY"


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

    def embed(self, code_text: str) -> EmbeddingVector:
        return self.embed_tokens(lex(code_text))

    def embed_tokens(self, tokens: Iterable[Token]) -> EmbeddingVector:
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

    def embed_functions(self, functions: Sequence[tuple[str, Sequence[Token]]]
                        ) -> list[EmbeddingVector]:
        """One vector per (source text, declaration tokens) pair, from the tokens."""
        return [self.embed_tokens(tokens) for _text, tokens in functions]


class RemoteEmbedder:
    """HTTP adapter: POST {model, input} to a vector endpoint.

    The endpoint must answer {"vectors": [[...], ...]}, one dense vector
    per input text, each of the configured dimension and made of JSON
    numbers; each is returned with its zeros dropped.
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

    def embed_functions(self, functions: Sequence[tuple[str, Sequence[Token]]]
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
            vector = EmbeddingVector.from_dense([float(v) for v in values])
            if not math.isfinite(math.hypot(*vector.values)):
                raise ProviderError("RemoteUnavailable",
                                    f"{self.url}: non-finite vector value")
            out.append(vector)
        return out


def meta_dimension(meta: Optional[dict]) -> int:
    """The vector dimension KB metadata records, or DEFAULT_DIMENSION."""
    return int((meta or {}).get("dimension", DEFAULT_DIMENSION))


def provider_from_meta(meta: Optional[dict]):
    """Reconstruct the embedding provider recorded in KB metadata."""
    name = (meta or {}).get("name", HashingEmbedder.name)
    dimension = meta_dimension(meta)
    if name == HashingEmbedder.name:
        return HashingEmbedder(dimension)
    if name == RemoteEmbedder.name:
        return RemoteEmbedder(dimension=dimension)
    raise ProviderError("RemoteUnavailable", f"unknown embedder {name!r} in KB metadata")


@dataclass(frozen=True)
class Candidate:
    """One retrieved reference function plus its ranking fields."""

    function_id: str
    s_sem: float
    guf: int
    clone_id: Optional[str]
    signature: SignatureFeatures
    s_final: Optional[float] = None


@dataclass(frozen=True)
class VectorIndex:
    """Exact-search index: one row per function, in function-id order.

    The functions' vectors arrive as sparse pairs; the index is where they
    become dense. ``rows`` holds each vector padded out to ``dimension``
    values for ``knn``'s rescore, every zero the one shared 0.0.
    ``columns`` lays the same values out bucket by bucket for ``knn``'s
    filter: every zero is again the shared float, and each column's nonzero
    values are copied together so that a scan over a few columns stays in
    cache. ``sq_norms`` holds each row's squared norm, and ``max_sq_norm``
    the largest of them (infinite if any is not finite). Columns and norms
    are tuples of floats, which the garbage collector stops tracking, so
    its full collections do not walk them.
    """

    dimension: int
    functions: list[FunctionUnit]
    rows: list[tuple[float, ...]]
    columns: list[tuple[float, ...]]
    sq_norms: tuple[float, ...]
    max_sq_norm: float

    def __len__(self) -> int:
        return len(self.rows)


def build_index(functions: Sequence[FunctionUnit], vectors: Mapping[str, EmbeddingVector],
                dimension: int) -> VectorIndex:
    """Pair every function that has a vector with its dense row and columns.

    Rows, columns and norms all come from the sparse pairs; a bucket
    outside ``range(dimension)`` raises DimensionMismatchError.
    """
    kept: list[FunctionUnit] = []
    pairs: list[EmbeddingVector] = []
    for fn in sorted(functions, key=lambda f: f.id):
        vector = vectors.get(fn.id)
        if vector is not None:
            kept.append(fn)
            pairs.append(vector)
    rows = []
    nonzero: list[list[int]] = [[] for _ in range(dimension)]  # bucket -> rows with a value
    for i, vector in enumerate(pairs):
        rows.append(vector.dense(dimension))
        for j in vector.buckets:
            nonzero[j].append(i)
    columns = []
    for j, members in enumerate(nonzero):
        column = [0.0] * len(rows)  # one shared zero
        for i in members:
            column[i] = rows[i][j] + 0.0  # a fresh float, allocated next to its column's others
        columns.append(tuple(column))
    # a zero adds exactly nothing to hypot, so the nonzero values give the row's norm
    sq_norms = tuple(math.hypot(*vector.values) ** 2 for vector in pairs)
    max_sq_norm = max(sq_norms, default=0.0) if all(map(math.isfinite, sq_norms)) else math.inf
    return VectorIndex(dimension, kept, rows, columns, sq_norms, max_sq_norm)


def index_from_graph(graph) -> VectorIndex:
    """Build the index straight from a knowledge base's sparse vectors."""
    return build_index(graph.functions(), graph.vectors, meta_dimension(graph.embedder_meta))


def _survivors(index: VectorIndex, query: tuple[float, ...], support: list[int],
               q_sq: float, n: int) -> list[int]:
    """The rows that may be among the ``n`` nearest to ``query``, ascending.

    For each row r, with q_S and r_S the query and the row restricted to
    the query's nonzero buckets ``support``, ``dist(q_S, r_S)**2 + |r|**2
    - hypot(*r_S)**2`` equals |q - r|**2 in real arithmetic; its float
    error is about 10 * 2**-53 * (|q|**2 + |r|**2). A row survives when
    this value is within 1e-9 * (|q|**2 + max |r|**2 + 1) of the n-th
    smallest, a margin so far above the error that every true top-n row
    survives.
    """
    count = len(index.rows)
    if support:
        r_s = list(zip(*[index.columns[j] for j in support]))
        apart = list(map(math.dist, repeat(tuple(query[j] for j in support), count), r_s))
        within = list(starmap(math.hypot, r_s))
        approx = list(map(sub, map(add, map(mul, apart, apart), index.sq_norms),
                          map(mul, within, within)))
    else:
        approx = index.sq_norms
    bound = heapq.nsmallest(n, approx)[-1] + 1e-9 * (q_sq + index.max_sq_norm + 1.0)
    return list(compress(range(count), map(bound.__ge__, approx)))


def knn(index: VectorIndex, query: EmbeddingVector, n: int = DEFAULT_POOL_SIZE
        ) -> list[Candidate]:
    """Exact nearest neighbors, ascending distance, id tiebreak.

    The sparse ``query`` is padded out to the index's dimension (a bucket
    outside it raises DimensionMismatchError). Filter and refine:
    ``_survivors`` scores every row on the query's nonzero buckets only and
    keeps those that can still be among the ``n`` nearest; only they are
    rescored with ``math.dist`` over the full dense rows, so ids and
    ``s_sem`` equal a full scan's bit for bit. Every
    row is rescored, with no filter, when ``n`` covers the index, when the
    query has more than ``dimension // FILTER_DIVISOR`` nonzero buckets
    (the filter would cost more than the full scan), or when a squared
    norm is not finite or so large that the filter's sums, which stay
    below 4 * (|q|**2 + max |r|**2), could overflow.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not index.rows:
        raise EmptyIndexError("vector index has no entries")
    values = query.dense(index.dimension)
    rows, functions = index.rows, index.functions
    if n < len(rows):
        support = list(compress(range(index.dimension), values))
        q_sq = math.hypot(*values) ** 2
        if (len(support) <= index.dimension // FILTER_DIVISOR
                and math.isfinite(4.0 * (q_sq + index.max_sq_norm))):
            survivors = _survivors(index, values, support, q_sq, n)
            rows = list(map(rows.__getitem__, survivors))
            functions = list(map(functions.__getitem__, survivors))
    distances = list(map(math.dist, repeat(values), rows))
    # nsmallest is stable and the rows stay in id order, so ties go to the lower id
    nearest = heapq.nsmallest(n, range(len(distances)), key=distances.__getitem__)
    out = []
    for position in nearest:
        fn = functions[position]
        out.append(Candidate(
            function_id=fn.id,
            s_sem=distances[position],
            guf=max(fn.guf, 1),
            clone_id=fn.clone_id,
            signature=fn.signature,
        ))
    return out
