"""Property graph over contract entities and its on-disk knowledge base.

Nodes are contracts, functions, state variables, modifiers, and type names;
edges are the extracted triples (deduplicated). Function nodes carry their
FunctionUnit payload, a clone-group id, and a usage frequency used by the
trust rescorer. The whole bundle serializes to a canonical binary container
so that saving the same knowledge base twice yields byte-identical files.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import struct
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .embedding import HashingEmbedder, RemoteEmbedder
from .ingest import (
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
_VERSION = 1


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

    ``vectors`` maps function ids to their embeddings. Only ``build_kb``
    and ``load_kb`` write it, and both finish before the first query, so
    the vector index cached by ``vector_index`` never sees it change.
    """

    def __init__(self) -> None:
        self.nodes: dict[str, EntityNode] = {}
        self.edges: list[tuple[str, Relation, str]] = []
        self.vectors: dict[str, tuple[float, ...]] = {}
        self.embedder_meta: Optional[dict] = None
        self._edge_set: set[tuple[str, Relation, str]] = set()
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
        return (self.nodes.keys() == other.nodes.keys()
                and all(_node_equal(self.nodes[k], other.nodes[k]) for k in self.nodes)
                and sorted(_edge_key(e) for e in self.edges)
                == sorted(_edge_key(e) for e in other.edges)
                and self.vectors == other.vectors
                and self.embedder_meta == other.embedder_meta)

    __hash__ = None  # type: ignore[assignment]


def _node_equal(a: EntityNode, b: EntityNode) -> bool:
    return (a.id, a.kind, a.label, a.payload) == (b.id, b.kind, b.label, b.payload)


def _edge_key(edge: tuple[str, Relation, str]) -> tuple[str, str, str]:
    subject_id, relation, object_id = edge
    return (subject_id, relation.value, object_id)


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

    A Function-kind endpoint whose id is not among ``functions`` means the
    triples and the function list disagree; that raises DanglingEndpoint.
    """
    graph = PropertyGraph()
    known = {fn.id: fn for fn in functions}
    for fn in functions:
        graph.add_node(EntityNode(fn.id, NodeKind.FUNCTION, fn.qualified_name, fn))
    for triple in triples:
        for ref in (triple.subject, triple.obj):
            if ref.kind is NodeKind.FUNCTION:
                if ref.id not in known:
                    raise GraphError(
                        "DanglingEndpoint",
                        f"triple references unknown function {ref.label!r} ({ref.id})")
            else:
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


def compute_guf(graph: PropertyGraph, clones: CloneGroupTable) -> PropertyGraph:
    """Stamp guf = clone-group size + CALLS in-degree on every function.

    The edges are deduplicated, so each caller counts once.
    """
    callers = Counter(object_id for _subject_id, relation, object_id in graph.edges
                      if relation is Relation.CALLS)
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


def _node_record(node: EntityNode, vectors: dict[str, tuple[float, ...]]) -> dict:
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
        record["vector"] = list(vectors[node.id])
    return record


def save_kb(graph: PropertyGraph, clones: CloneGroupTable, path: str) -> None:
    """Write the knowledge base; canonical, so double-save is byte-identical."""
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


def load_kb(path: str) -> tuple[PropertyGraph, CloneGroupTable]:
    """Read a knowledge base written by save_kb; never yields a partial graph."""
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
        raise FormatError("VersionMismatch",
                          f"{path}: version {version}, expected {_VERSION}")
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
    if meta.get("name", HashingEmbedder.name) not in (HashingEmbedder.name, RemoteEmbedder.name):
        raise FormatError("Corrupt", f"{path}: unknown embedder {meta['name']!r}")
    # every vector has the metadata's dimension, or else the first vector's
    dimension = meta.get("dimension")
    if "dimension" in meta and (type(dimension) is not int or dimension < 1):
        raise FormatError("Corrupt", f"{path}: dimension {dimension!r} is not a positive int")
    graph = PropertyGraph()
    try:
        for record in node_records:
            payload = None
            if "payload" in record:
                raw = record["payload"]
                if not isinstance(raw["clone_id"], (str, type(None))):
                    raise ValueError(f"node {record['id']!r}: clone_id is not a string or null")
                payload = FunctionUnit(
                    id=record["id"],
                    contract_name=raw["contract_name"],
                    name=raw["name"],
                    source_text=raw["source_text"],
                    signature=SignatureFeatures(frozenset(raw["signature"])),
                    token_count=raw["token_count"],
                    clone_id=raw["clone_id"],
                    guf=raw["guf"],
                )
            kind = NodeKind(record["kind"])
            graph.add_node(EntityNode(record["id"], kind, record["label"], payload))
            if "vector" in record:
                vector = record["vector"]
                if not isinstance(vector, list) or not vector:
                    raise ValueError(f"node {record['id']!r}: vector is not a non-empty list")
                if dimension is None:
                    dimension = len(vector)
                if len(vector) != dimension:
                    raise ValueError(f"node {record['id']!r}: vector has {len(vector)} "
                                     f"values, expected {dimension}")
                if not math.isfinite(math.hypot(*vector)):  # TypeError for a non-number
                    raise ValueError(f"node {record['id']!r}: vector is not finite")
                graph.vectors[record["id"]] = tuple(vector)
        for subject_id, relation_name, object_id in edge_records:
            graph.add_edge(subject_id, Relation(relation_name), object_id)
        groups = clone_section["groups"]
        if not isinstance(groups, dict):
            raise ValueError("clone groups are not an object")
        clones = CloneGroupTable(
            min_tokens=clone_section["min_tokens"],
            groups={cid: list(members) for cid, members in groups.items()},
        )
    except (KeyError, TypeError, ValueError, GraphError) as exc:
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

    ``embedder`` is any provider with name/dimension attributes and an
    ``embed_functions(pairs)`` method that returns one vector per
    (source text, declaration tokens) pair; ``repair.retrieve`` embeds
    its queries with the same call on the provider the metadata names.
    Files that fail to parse or duplicate an earlier file (by canonical
    token hash) are skipped with a report entry.

    Files are processed one at a time: each is lexed and parsed once, and
    its hash, triples, clone keys and embeddings all come from that parse
    before the next file is read, so only one file's tokens are alive at a
    time. Each file's functions that have no vector yet (the first payload
    of an id wins, as in ``PropertyGraph.add_node``) are embedded with one
    ``embed_functions`` call. The report lists every parse diagnostic
    before every triple diagnostic.
    """
    report = BuildReport()
    corpus_hashes: dict[str, str] = {}
    triples: list[Triple] = []
    triple_diagnostics: list[str] = []
    functions: list[FunctionUnit] = []
    keys: dict[str, str] = {}
    vectors: dict[str, tuple[float, ...]] = {}
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
            for fn_id, vector in zip(new, embedder.embed_functions(list(new.values()))):
                vectors[fn_id] = vector.values
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
