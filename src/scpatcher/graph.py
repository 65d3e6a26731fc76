"""Property graph over contract entities and its on-disk knowledge base.

Nodes are contracts, functions, state variables, modifiers, and type names;
edges are the extracted triples (deduplicated). Function nodes carry their
FunctionUnit payload, a clone-group id, and a usage frequency used by the
trust rescorer. The whole bundle serializes to a canonical binary container
so that saving the same knowledge base twice yields byte-identical files.

The container (format 2) is the magic ``SCPK``, a little-endian u16
version, and four sections, each a u32 length and canonical JSON: the node
records, the edges, the clone groups and the embedder metadata. Every
function node's record, and no other, holds its embedding as a sparse pair
``"vector": [[buckets...], [values...]]``: the nonzero buckets in strictly
ascending order, each below the metadata's ``dimension`` (256 when it has
none), and their float values. Every other bucket is 0.0, so a dense vector
is stored with its zeros dropped. Format 1 stored every vector densely; it
is not read, and a format-1 file is rebuilt from its corpus.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import struct
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice
from operator import lt
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .embedding import PROVIDERS, EmbeddingVector, HashingEmbedder, meta_dimension, within_bound
from .ingest import (
    RELATION_TYPING,
    IngestError,
    NodeKind,
    Relation,
    Token,
    Triple,
    canonical_source_hash,
    extract_triples_with_diagnostics,
    load_source,
    normalize_source,
)
from .model import FunctionUnit, SignatureFeatures

_MAGIC = b"SCPK"
_VERSION = 2


class GraphError(Exception):
    """Graph construction/lookup failure.

    ``code`` is one of ``DanglingEndpoint`` or ``UnknownNode``.
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class FormatError(Exception):
    """Knowledge-base file rejected.

    ``code`` is one of ``BadMagic``, ``VersionMismatch``, ``Truncated``,
    or ``Corrupt``.
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


@dataclass
class EntityNode:
    id: str
    kind: NodeKind
    label: str
    payload: Optional[FunctionUnit] = None


class PropertyGraph:
    """In-memory indexed graph with deduplicated edges.

    ``vectors`` maps function ids to their sparse embeddings, (buckets,
    values) pairs. Only ``build_kb`` and ``load_kb`` write it, and both
    finish before the first query, so the vector index cached by
    ``vector_index`` never sees it change.
    """

    def __init__(self) -> None:
        self.nodes: dict[str, EntityNode] = {}
        self.edges: list[tuple[str, Relation, str]] = []
        self.vectors: dict[str, EmbeddingVector] = {}
        self.embedder_meta: Optional[dict] = None
        # None: load_kb stored the edges, unique, without indexing them
        self._edge_set: Optional[set[tuple[str, Relation, str]]] = set()
        self._functions: list[EntityNode] = []  # FUNCTION nodes, in insertion order
        self._index = None  # see vector_index

    def add_node(self, node: EntityNode) -> None:
        existing = self.nodes.get(node.id)
        if existing is None:
            self.nodes[node.id] = node
            if node.kind is NodeKind.FUNCTION:
                self._functions.append(node)
            self._index = None
        # identical re-adds are a no-op; first payload wins

    def add_edge(self, subject_id: str, relation: Relation, object_id: str) -> None:
        for endpoint in (subject_id, object_id):
            if endpoint not in self.nodes:
                raise GraphError("DanglingEndpoint",
                                 f"edge endpoint {endpoint!r} is not a known node")
        key = (subject_id, relation, object_id)
        if self._edge_set is None:
            self._edge_set = set(self.edges)
        if key in self._edge_set:
            return
        self._edge_set.add(key)
        self.edges.append(key)

    def node(self, node_id: str) -> EntityNode:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise GraphError("UnknownNode", f"no node with id {node_id!r}") from None

    def function_nodes(self) -> list[EntityNode]:
        return list(self._functions)

    def functions(self) -> list[FunctionUnit]:
        return [n.payload for n in self.function_nodes() if n.payload is not None]

    def update_payload(self, function_id: str, **changes) -> FunctionUnit:
        node = self.node(function_id)
        if node.payload is None:
            raise GraphError("UnknownNode", f"node {function_id!r} has no function payload")
        node.payload = dataclasses.replace(node.payload, **changes)
        self._index = None
        return node.payload

    def vector_index(self, build: Callable[["PropertyGraph"], object]):
        """The index over this graph's functions, from ``build(self)`` on a miss.

        ``add_node`` and ``update_payload``, the only methods that change
        what ``functions()`` returns, drop the cached index. Concurrent
        callers may all miss and build at once; that race is benign,
        because each uses the index it built or read and all of them are
        equal, and the last store wins.
        """
        index = self._index
        if index is None:
            index = self._index = build(self)
        return index

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PropertyGraph):
            return NotImplemented
        return (self.nodes == other.nodes
                and Counter(self.edges) == Counter(other.edges)
                and self.vectors == other.vectors
                and self.embedder_meta == other.embedder_meta)

    __hash__ = None  # type: ignore[assignment]


@dataclass
class CloneGroupTable:
    """Clone groups keyed by normalized-token hash.

    Groups cover exactly the functions at or above ``min_tokens``; singleton
    groups are kept so group size is always defined.
    """

    min_tokens: int
    groups: dict[str, list[str]] = field(default_factory=dict)

    def size_of(self, clone_id: Optional[str]) -> int:
        if clone_id is None:
            return 1
        return len(self.groups.get(clone_id, [])) or 1

    def multi_member_groups(self) -> dict[str, list[str]]:
        return {cid: members for cid, members in self.groups.items() if len(members) >= 2}


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def build_graph(triples: list[Triple], functions: list[FunctionUnit]) -> PropertyGraph:
    """Materialize nodes from functions and triple endpoints, dedup edges.

    Function nodes come from ``functions`` only: a Function-kind endpoint
    whose id is not among them means the triples and the function list
    disagree, and ``add_edge`` raises DanglingEndpoint.
    """
    graph = PropertyGraph()
    for fn in functions:
        graph.add_node(EntityNode(fn.id, NodeKind.FUNCTION, fn.qualified_name, fn))
    for triple in triples:
        for ref in (triple.subject, triple.obj):
            if ref.kind is not NodeKind.FUNCTION:
                graph.add_node(EntityNode(ref.id, ref.kind, ref.label))
        graph.add_edge(triple.subject.id, triple.relation, triple.obj.id)
    return graph


def clone_key(normalized: Sequence[str]) -> str:
    """Clone-group key: hash of a function's normalized token sequence."""
    joined = " ".join(normalized)
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()[:16]


def assign_clone_groups(graph: PropertyGraph, clone_min_tokens: int = 12,
                        keys: Optional[Mapping[str, str]] = None) -> CloneGroupTable:
    """Group functions by normalized-token hash and stamp clone_id payloads.

    Functions below the token threshold get clone_id = None and appear in no
    group; everything else lands in exactly one group (possibly singleton).
    ``keys`` maps function ids to their ``clone_key``s when the caller has
    them from the parse; without it each key comes from the source text.
    """
    table = CloneGroupTable(min_tokens=clone_min_tokens)
    for node in sorted(graph.function_nodes(), key=lambda n: n.id):
        fn = node.payload
        if fn is None:
            continue
        if fn.token_count < clone_min_tokens:
            graph.update_payload(fn.id, clone_id=None)
            continue
        cid = keys[fn.id] if keys is not None else clone_key(normalize_source(fn.source_text))
        table.groups.setdefault(cid, []).append(fn.id)
        graph.update_payload(fn.id, clone_id=cid)
    for members in table.groups.values():
        members.sort()
    return table


def _calls_in_degree(edges: Iterable[tuple[str, Relation, str]]) -> Counter:
    """Each function's CALLS in-degree; edges are unique, so each caller counts once."""
    return Counter(object_id for _subject_id, relation, object_id in edges
                   if relation is Relation.CALLS)


def compute_guf(graph: PropertyGraph, clones: CloneGroupTable) -> PropertyGraph:
    """Stamp guf = clone-group size + CALLS in-degree on every function."""
    callers = _calls_in_degree(graph.edges)
    for node in graph.function_nodes():
        fn = node.payload
        if fn is None:
            continue
        guf = clones.size_of(fn.clone_id) + callers[fn.id]
        graph.update_payload(fn.id, guf=guf)
    return graph


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _canonical_json(value) -> bytes:
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _node_record(node: EntityNode, vectors: dict[str, EmbeddingVector]) -> dict:
    record: dict = {"id": node.id, "kind": node.kind.value, "label": node.label}
    fn = node.payload
    if fn is not None:
        record["payload"] = {
            "contract_name": fn.contract_name,
            "name": fn.name,
            "source_text": fn.source_text,
            "signature": fn.signature.sorted_features(),
            "token_count": fn.token_count,
            "clone_id": fn.clone_id,
            "guf": fn.guf,
        }
    if node.id in vectors:
        buckets, values = vectors[node.id]
        record["vector"] = [buckets, values]
    return record


def save_kb(graph: PropertyGraph, clones: CloneGroupTable, path: str) -> None:
    """Write the knowledge base in format 2; canonical, so double-save is byte-identical.

    Nodes are sorted by id and edges by their three fields; JSON keys are
    sorted. Each function's vector is written as it is held, the pair
    ``[[buckets...], [values...]]``, with no dense copy made.
    """
    nodes = [_node_record(graph.nodes[nid], graph.vectors)
             for nid in sorted(graph.nodes)]
    edges = sorted([s, r.value, o] for s, r, o in graph.edges)
    clone_section = {
        "min_tokens": clones.min_tokens,
        "groups": {cid: sorted(members) for cid, members in clones.groups.items()},
    }
    meta = graph.embedder_meta or {}
    blob = bytearray()
    blob += _MAGIC
    blob += struct.pack("<H", _VERSION)
    for section in (nodes, edges, clone_section, meta):
        payload = _canonical_json(section)
        blob += struct.pack("<I", len(payload))
        blob += payload
    with open(path, "wb") as handle:
        handle.write(bytes(blob))


#: payload field -> the JSON types save_kb writes for it (exact types: a bool is no int)
_PAYLOAD_TYPES = {
    "contract_name": (str,),
    "name": (str,),
    "source_text": (str,),
    "signature": (list,),
    "token_count": (int,),
    "clone_id": (str, type(None)),
    "guf": (int,),
}


def _function_unit(node_id: str, raw) -> FunctionUnit:
    """The payload of a function record, if every field has its saved type."""
    for name, types in _PAYLOAD_TYPES.items():
        if type(raw[name]) not in types:
            raise ValueError(
                f"node {node_id!r}: payload {name} has type {type(raw[name]).__name__}")
    signature = raw["signature"]
    if not (set(map(type, signature)) <= {str} and _ascending(signature)):
        raise ValueError(f"node {node_id!r}: signature features are not strings "
                         f"in strictly ascending order")
    return FunctionUnit(
        id=node_id,
        contract_name=raw["contract_name"],
        name=raw["name"],
        source_text=raw["source_text"],
        signature=SignatureFeatures(frozenset(signature)),
        token_count=raw["token_count"],
        clone_id=raw["clone_id"],
        guf=raw["guf"],
    )


def _ascending(items: list) -> bool:
    """Whether ``items`` are strictly ascending, so also free of repeats."""
    return all(map(lt, items, islice(items, 1, None)))


#: relation name -> (relation, subject kind, object kinds), as every triple has them
_EDGE_KINDS = {relation.value: (relation, subject_kind, tuple(object_kinds))
               for relation, (subject_kind, object_kinds) in RELATION_TYPING.items()}


def _sparse_vector(node_id: str, raw, dimension: int) -> EmbeddingVector:
    """A record's ``[[buckets...], [values...]]``, if it is one save_kb wrote:
    int buckets strictly ascending in ``range(dimension)``, floats ``within_bound``."""
    if type(raw) is not list or len(raw) != 2:
        raise ValueError(f"node {node_id!r}: vector is not a [buckets, values] pair")
    buckets, values = raw
    if type(buckets) is not list or type(values) is not list or len(buckets) != len(values):
        raise ValueError(f"node {node_id!r}: vector buckets and values are not lists "
                         f"of one length")
    if buckets and not (set(map(type, buckets)) <= {int} and 0 <= buckets[0]
                        and buckets[-1] < dimension and _ascending(buckets)):
        raise ValueError(f"node {node_id!r}: vector buckets are not ints strictly "
                         f"ascending below {dimension}")
    if not set(map(type, values)) <= {float} or not within_bound(values):
        raise ValueError(f"node {node_id!r}: vector values are not floats of norm <= 2**510")
    return EmbeddingVector(tuple(buckets), tuple(values))


def load_kb(path: str) -> tuple[PropertyGraph, CloneGroupTable]:
    """Read a format-2 knowledge base written by save_kb; never yields a partial graph.

    Every section must be as save_kb writes it for a graph that build_kb
    made. FormatError("Corrupt") is raised, among other cases, for node
    records or edges out of strictly ascending order (so also for a
    repeat), signature features out of it, a payload field of the wrong
    type, a malformed vector, a function node without a payload or a
    vector, another node with either, an edge whose relation does not fit
    its endpoints' kinds, clone groups that differ from the functions'
    ``clone_id``s, a ``clone_id`` on a function below the clone section's
    ``min_tokens`` or none on one at or above it, a ``guf`` other than the
    function's clone-group size plus its CALLS in-degree (so every loaded
    ``guf`` is at least 1), or a vector not ``within_bound``: not finite or
    of a norm above 2**510, the bound every provider's ``embed`` holds, so
    that ``knn`` cannot overflow. The metadata must name a provider
    (``name``, ``dimension``, ``embed``) in ``embedding.PROVIDERS``. A
    format-1 file raises FormatError("VersionMismatch").
    """
    with open(path, "rb") as handle:
        blob = handle.read()
    if len(blob) < 4 or blob[:4] != _MAGIC:
        if len(blob) < 4:
            raise FormatError("Truncated", f"{path}: too short for a header")
        raise FormatError("BadMagic", f"{path}: bad magic {blob[:4]!r}")
    if len(blob) < 6:
        raise FormatError("Truncated", f"{path}: missing version field")
    (version,) = struct.unpack_from("<H", blob, 4)
    if version != _VERSION:
        raise FormatError("VersionMismatch", f"{path}: version {version}, expected "
                          f"{_VERSION}; rebuild the knowledge base from its corpus")
    offset = 6
    sections = []
    for index in range(4):
        if offset + 4 > len(blob):
            raise FormatError("Truncated", f"{path}: section {index} length missing")
        (length,) = struct.unpack_from("<I", blob, offset)
        offset += 4
        if offset + length > len(blob):
            raise FormatError("Truncated", f"{path}: section {index} payload cut short")
        payload = blob[offset:offset + length]
        offset += length
        try:
            sections.append(json.loads(payload.decode("utf-8")))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FormatError("Corrupt", f"{path}: section {index} undecodable ({exc})") from None
    if offset != len(blob):
        raise FormatError("Corrupt", f"{path}: {len(blob) - offset} trailing byte(s)")

    node_records, edge_records, clone_section, meta = sections
    # the metadata must name a provider that retrieve can rebuild
    if not isinstance(meta, dict):
        raise FormatError("Corrupt", f"{path}: metadata is not an object")
    name = meta.get("name", HashingEmbedder.name)
    if type(name) is not str or name not in PROVIDERS:
        raise FormatError("Corrupt", f"{path}: unknown embedder {name!r}")
    if "dimension" in meta and (type(meta["dimension"]) is not int or meta["dimension"] < 1):
        raise FormatError("Corrupt",
                          f"{path}: dimension {meta['dimension']!r} is not a positive int")
    dimension = meta_dimension(meta)  # the bucket bound; provider_from_meta's dimension too
    graph = PropertyGraph()
    try:
        ids = [record["id"] for record in node_records]
        if not (set(map(type, ids)) <= {str} and _ascending(ids)):
            raise ValueError("node ids are not strings in strictly ascending order")
        for record in node_records:
            node_id, kind, label = record["id"], NodeKind(record["kind"]), record["label"]
            if type(label) is not str:
                raise ValueError(f"node {node_id!r}: label is not a string")
            is_function = kind is NodeKind.FUNCTION
            if ("payload" in record) is not is_function or ("vector" in record) is not is_function:
                raise ValueError(f"node {node_id!r}: a function node, and no other, "
                                 f"has a payload and a vector")
            if not is_function:
                graph.add_node(EntityNode(node_id, kind, label))
                continue
            payload = _function_unit(node_id, record["payload"])
            graph.add_node(EntityNode(node_id, kind, label, payload))
            graph.vectors[node_id] = _sparse_vector(node_id, record["vector"], dimension)
        if not _ascending(edge_records):
            raise ValueError("edges are not in strictly ascending order")
        # each a known relation between known nodes of the kinds it joins
        # (an unknown name or endpoint is a KeyError)
        nodes, edges = graph.nodes, []
        for subject_id, relation_name, object_id in edge_records:
            relation, subject_kind, object_kinds = _EDGE_KINDS[relation_name]
            if nodes[subject_id].kind is not subject_kind \
                    or nodes[object_id].kind not in object_kinds:
                raise ValueError(f"edge {subject_id!r} -{relation_name}-> {object_id!r} "
                                 f"joins nodes of other kinds")
            edges.append((subject_id, relation, object_id))
        graph.edges, graph._edge_set = edges, None
        min_tokens, groups = clone_section["min_tokens"], clone_section["groups"]
        if type(min_tokens) is not int:
            raise ValueError("clone min_tokens is not an int")
        # the groups are exactly the functions' clone ids, members sorted, as
        # saved, and a function has a clone id exactly if it reaches min_tokens
        members: dict[str, list[str]] = {}
        for fn in graph.functions():
            if (fn.clone_id is None) is not (fn.token_count < min_tokens):
                raise ValueError(f"function {fn.id!r}: clone id {fn.clone_id!r} at "
                                 f"{fn.token_count} tokens, clone min_tokens {min_tokens}")
            if fn.clone_id is not None:
                members.setdefault(fn.clone_id, []).append(fn.id)
        for ids in members.values():
            ids.sort()
        if groups != members:
            raise ValueError("clone groups differ from the functions' clone ids")
        clones = CloneGroupTable(min_tokens=min_tokens, groups=members)
        callers = _calls_in_degree(graph.edges)
        for fn in graph.functions():
            if fn.guf != clones.size_of(fn.clone_id) + callers[fn.id]:
                raise ValueError(f"function {fn.id!r}: guf {fn.guf} is not its clone-group "
                                 f"size plus its CALLS in-degree")
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError("Corrupt", f"{path}: inconsistent payload ({exc})") from None
    graph.embedder_meta = meta or None
    return graph, clones


# ---------------------------------------------------------------------------
# Corpus orchestration
# ---------------------------------------------------------------------------

@dataclass
class BuildReport:
    files_seen: int = 0
    files_used: int = 0
    duplicates_skipped: list[str] = field(default_factory=list)
    files_failed: list[str] = field(default_factory=list)
    diagnostics: list[str] = field(default_factory=list)
    function_count: int = 0
    edge_count: int = 0
    clone_groups: int = 0

    def lines(self) -> list[str]:
        return [
            f"files: {self.files_used}/{self.files_seen} used "
            f"({len(self.duplicates_skipped)} duplicate, {len(self.files_failed)} failed)",
            f"functions: {self.function_count}",
            f"edges: {self.edge_count}",
            f"clone groups (2+ members): {self.clone_groups}",
            f"diagnostics: {len(self.diagnostics)}",
        ]


def build_kb(paths: Iterable[str], embedder, clone_min_tokens: int = 12,
             ) -> tuple[PropertyGraph, CloneGroupTable, BuildReport]:
    """Parse a corpus, build the graph, group clones, score usage, embed.

    ``embedder`` is a provider: ``name`` and ``dimension`` attributes and an
    ``embed(pairs)`` method that returns one sparse ``EmbeddingVector`` per
    (source text, declaration tokens) pair, ``within_bound``, which
    ``graph.vectors`` keeps as it is; ``repair.retrieve`` embeds its
    queries with the same call on the provider the metadata names.
    Files that fail to parse or duplicate an earlier file (by canonical
    token hash) are skipped with a report entry.

    Files are processed one at a time: each is lexed and parsed once, and
    its hash, triples, clone keys and embeddings all come from that parse
    before the next file is read, so only one file's tokens are alive at a
    time. Each file's functions that have no vector yet (the first payload
    of an id wins, as in ``PropertyGraph.add_node``) are embedded with one
    ``embed`` call. The report lists every parse diagnostic
    before every triple diagnostic.
    """
    report = BuildReport()
    corpus_hashes: dict[str, str] = {}
    triples: list[Triple] = []
    triple_diagnostics: list[str] = []
    functions: list[FunctionUnit] = []
    keys: dict[str, str] = {}
    vectors: dict[str, EmbeddingVector] = {}
    for path in paths:
        report.files_seen += 1
        try:
            unit = load_source(path)
        except IngestError as exc:
            report.files_failed.append(path)
            report.diagnostics.append(f"{path}: {exc.code}: {exc}")
            continue
        digest = canonical_source_hash(unit.tokens)
        if digest in corpus_hashes:
            report.duplicates_skipped.append(path)
            continue
        if unit.contracts:
            corpus_hashes[digest] = f"contract:{unit.contracts[0].name}"
        else:
            corpus_hashes[digest] = "(no contract)"
        report.diagnostics.extend(unit.diagnostics)
        report.files_used += 1

        unit_triples, diagnostics = extract_triples_with_diagnostics(unit)
        triples.extend(unit_triples)
        triple_diagnostics.extend(f"{unit.path}: {line}" for line in diagnostics)
        new: dict[str, tuple[str, list[Token]]] = {}
        for fn, decl in unit.declarations():
            functions.append(fn)
            keys[fn.id] = clone_key(decl.normalized)
            if fn.id not in vectors and fn.id not in new:
                new[fn.id] = (fn.source_text, unit.tokens[decl.start:decl.end])
        if new:
            vectors.update(zip(new, embedder.embed(list(new.values()))))
    report.diagnostics.extend(triple_diagnostics)

    graph = build_graph(triples, functions)
    clones = assign_clone_groups(graph, clone_min_tokens, keys)
    compute_guf(graph, clones)
    graph.vectors = vectors
    graph.embedder_meta = {
        "name": embedder.name,
        "dimension": embedder.dimension,
        "corpus_hashes": corpus_hashes,
    }

    report.function_count = len(graph.function_nodes())
    report.edge_count = len(graph.edges)
    report.clone_groups = len(clones.multi_member_groups())
    return graph, clones, report
