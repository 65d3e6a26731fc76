"""Embedding providers and the exact nearest-neighbor index.

The reference provider is a deterministic hashing embedder: tokens are
hashed into a fixed number of buckets, counts are log-damped, and the
vector is L2-normalized. It reads tokens, not text: ``embed_tokens``
counts each distinct token text once, looks its bucket up in a per-instance
memo (one SHA-256 per distinct text), and computes weights and the norm
over the nonzero buckets only, in ascending bucket order, so the result is
bit-identical to the dense formula over every bucket. ``embed(text)`` is
``embed_tokens(lex(text))``. A remote HTTP provider can slot in behind the
same interface; it embeds source text.

``build_kb`` embeds a file's new functions with one ``embed_functions``
call per file, passing each function's source text and the declaration
tokens its parse already holds: the hashing embedder reads the tokens and
lexes nothing, and the remote embedder posts the texts in one request.

Retrieval is exact, in the manner of a flat L2 index: the index is built
once per knowledge base (``PropertyGraph.vector_index`` keeps it), and
every query scans all of its rows with ``math.dist`` and keeps the
nearest by a stable selection, so results are reproducible and
oracle-checkable.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import os
from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterable, Optional, Sequence

import requests

from .ingest import Token, lex
from .model import FunctionUnit, SignatureFeatures

DEFAULT_DIMENSION = 256
DEFAULT_POOL_SIZE = 50

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


@dataclass(frozen=True)
class EmbeddingVector:
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("embedding vector must be non-empty")

    @property
    def dimension(self) -> int:
        return len(self.values)


class HashingEmbedder:
    """Deterministic local embedder: token buckets, log counts, unit norm."""

    name = "token-hash"

    def __init__(self, dimension: int = DEFAULT_DIMENSION):
        if dimension < 1:
            raise ValueError("dimension must be positive")
        self.dimension = dimension
        self._buckets: dict[str, int] = {}  # token text -> bucket

    def _bucket(self, token: str) -> int:
        digest = hashlib.sha256(token.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") % self.dimension

    def embed(self, code_text: str) -> EmbeddingVector:
        return self.embed_tokens(lex(code_text))

    def embed_tokens(self, tokens: Iterable[Token]) -> EmbeddingVector:
        """The vector of a lexed text; equal to the dense formula's.

        A zero bucket adds exactly 0.0 to the norm's sum and divides to
        0.0, so summing the nonzero weights in ascending bucket order gives
        the same floats as summing all of them.
        """
        # literal values carry no structure
        counts = Counter("LIT" if tok.kind in ("number", "string") else tok.text
                         for tok in tokens)
        buckets = self._buckets
        per_bucket: dict[int, int] = {}
        for text, count in counts.items():
            bucket = buckets.get(text)
            if bucket is None:
                bucket = buckets[text] = self._bucket(text)
            per_bucket[bucket] = per_bucket.get(bucket, 0) + count
        values = [0.0] * self.dimension
        if not per_bucket:
            values[0] = 1.0
            return EmbeddingVector(tuple(values))
        order = sorted(per_bucket)
        weights = [math.log1p(per_bucket[bucket]) for bucket in order]
        norm = math.sqrt(sum(w * w for w in weights))
        for bucket, w in zip(order, weights):
            values[bucket] = w / norm
        return EmbeddingVector(tuple(values))

    def embed_functions(self, functions: Sequence[tuple[str, Sequence[Token]]]
                        ) -> list[EmbeddingVector]:
        """One vector per (source text, declaration tokens) pair, from the tokens."""
        return [self.embed_tokens(tokens) for _text, tokens in functions]


class RemoteEmbedder:
    """HTTP adapter: POST {model, input} to a vector endpoint.

    The endpoint must answer {"vectors": [[...], ...]}, one vector per
    input text, each of the configured dimension.
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

    def embed(self, code_text: str) -> EmbeddingVector:
        return self.embed_batch([code_text])[0]

    def embed_functions(self, functions: Sequence[tuple[str, Sequence[Token]]]
                        ) -> list[EmbeddingVector]:
        """One vector per (source text, declaration tokens) pair, in one request."""
        return self.embed_batch([text for text, _tokens in functions])

    def embed_batch(self, texts: Sequence[str]) -> list[EmbeddingVector]:
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        try:
            response = self._session.post(
                self.url, json={"model": self.model, "input": list(texts)},
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
            try:
                out.append(EmbeddingVector(tuple(float(v) for v in values)))
            except (TypeError, ValueError):
                raise ProviderError("RemoteUnavailable",
                                    f"{self.url}: non-numeric vector value") from None
        return out


def provider_from_meta(meta: Optional[dict]):
    """Reconstruct the embedding provider recorded in KB metadata."""
    meta = meta or {}
    name = meta.get("name", HashingEmbedder.name)
    dimension = int(meta.get("dimension", DEFAULT_DIMENSION))
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


@dataclass
class VectorIndex:
    """Exact-search index: one row per function, in function-id order."""

    dimension: int
    functions: list[FunctionUnit] = field(default_factory=list)
    rows: list[tuple[float, ...]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.rows)


def build_index(functions: Sequence[FunctionUnit],
                vectors: dict[str, tuple[float, ...]]) -> VectorIndex:
    """Pair every function with its vector; all dimensions must agree."""
    index = VectorIndex(dimension=0)
    for fn in sorted(functions, key=lambda f: f.id):
        if fn.id not in vectors:
            continue
        vector = EmbeddingVector(tuple(vectors[fn.id]))
        if index.dimension == 0:
            index.dimension = vector.dimension
        elif vector.dimension != index.dimension:
            raise DimensionMismatchError(
                f"{fn.qualified_name}: dimension {vector.dimension}, index has {index.dimension}")
        index.functions.append(fn)
        index.rows.append(vector.values)
    return index


def index_from_graph(graph) -> VectorIndex:
    """Build the index straight from a loaded knowledge base."""
    return build_index(graph.functions(), graph.vectors)


def knn(index: VectorIndex, query: EmbeddingVector, n: int = DEFAULT_POOL_SIZE
        ) -> list[Candidate]:
    """Exact nearest neighbors, ascending distance, id tiebreak."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not index.rows:
        raise EmptyIndexError("vector index has no entries")
    if query.dimension != index.dimension:
        raise DimensionMismatchError(
            f"dimension {query.dimension} vs {index.dimension}")
    distances = list(map(math.dist, repeat(query.values, len(index.rows)), index.rows))
    # nsmallest is stable and the rows are in id order, so ties go to the lower id.
    nearest = heapq.nsmallest(n, range(len(distances)), key=distances.__getitem__)
    out = []
    for row in nearest:
        fn = index.functions[row]
        out.append(Candidate(
            function_id=fn.id,
            s_sem=distances[row],
            guf=max(fn.guf, 1),
            clone_id=fn.clone_id,
            signature=fn.signature,
        ))
    return out
