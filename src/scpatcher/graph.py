"""Property graph over contract entities and its on-disk knowledge base.

Nodes are contracts, functions, state variables, modifiers, and type names;
edges are the extracted triples (deduplicated). A node's kind and an edge's
relation are their names, the plain strings that ``ingest.RELATION_TYPING``
lists. Function nodes carry their FunctionUnit payload, a clone-group id,
and a usage frequency used by the trust rescorer. A graph keeps its edges
and its vectors as typed columns, with no object per edge or per vector:
``EdgeColumns`` and ``vectors.VectorTable``. A graph is made whole, once:
by ``build_graph`` from a corpus's triples and functions, or by ``load_kb``
from a file, and is only read after that. The whole bundle serializes to a
canonical binary container so that saving the same knowledge base twice
yields byte-identical files.

The container (format 6) is the magic ``SCPK``, a little-endian u16
version, and four sections, each a u32 length and its bytes: the nodes,
the edges, the embedder metadata and the vectors. The node and metadata
sections are canonical JSON; the edge and vector sections are binary
columns, every number in them little-endian.

The node section is an object of equal-length arrays, one per field. Its
``id`` and ``kind`` run over every node in ascending id order; its
``label`` over the other nodes, and its ``contract_name``, ``name``,
``source_text``, ``signature``, ``token_count`` and ``clone_id`` over the
function nodes, each in that same order; ``load_kb`` derives a function
node's label, its qualified name, and the clone groups and every guf. A
signature is its sorted features joined by single spaces (a feature holds
no whitespace; ``""`` has none).

The edge section holds, for E edges, E u32 subject positions, then E u8
relation codes, then E u32 object positions, so its length is exactly
``9 * E``. A position indexes the ``id`` array, and a relation's code is
its index in ``sorted(RELATION_TYPING)``, so codes sort as names do. The
rows are sorted by (subject, relation, object), which is also the order of
the edges' ids and names and the order ``PropertyGraph.edges`` holds them
in.

The vector section holds every function's embedding as a sparse vector,
in the order of the function nodes: one u32 per function, the end of its
row (how many buckets it and every function before it have), then all
their buckets as u32, then all their values as f64, so its length is
exactly ``4 * functions + 12 * buckets``. These are the columns of
``PropertyGraph.vectors``, written as the graph holds them. A vector's
buckets are strictly ascending, each below the metadata's ``dimension``
(256 when it has none); every other bucket is 0.0, so a dense vector is
stored with its zeros dropped, and every value round-trips bit for bit.

Format 1 stored every vector densely in its node record, format 2 as a
``[[buckets...], [values...]]`` pair there, format 3 held one JSON record
per node and one list per edge, format 4 also stored the clone groups,
their threshold, every guf and every label, and format 5 held the edges as
JSON columns of positions and relation names and each vector's bucket
count where format 6 has its row's end; none of them is read, and such a
file is rebuilt from its corpus.
"""

from __future__ import annotations

import json
import struct
import sys
from array import array
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, compress, islice
from operator import le, lt
from typing import Callable, ClassVar, Iterable, Mapping, Optional, Sequence

from .embedding import (
    PROVIDERS,
    HashingEmbedder,
    ProviderError,
    _little_endian,
    meta_dimension,
)
from .ingest import (
    RELATION_TYPING,
    IngestError,
    Token,
    Triple,
    canonical_source_hash,
    extract_triples_with_diagnostics,
    load_source,
)
from .model import CodedError, FunctionUnit, SignatureFeatures, sha256
from .vectors import (
    BUCKET_TYPE,
    MAX_DIMENSION,
    EmbeddingVector,
    VectorTable,
    _ascending,
    _TableRows,
    _vector_fault,
)

_MAGIC = b"SCPK"
_VERSION = 6


class GraphError(CodedError):
    """Graph construction failure; ``code`` is ``DanglingEndpoint``."""


class FormatError(CodedError):
    """Knowledge-base file rejected.

    ``code`` is one of ``BadMagic``, ``VersionMismatch``, ``Truncated``,
    or ``Corrupt``.
    """


@dataclass(slots=True)
class EntityNode:
    id: str
    kind: str  # a node kind's name in RELATION_TYPING
    label: str
    payload: Optional[FunctionUnit] = None


class EdgeColumns:
    """A graph's edges as three parallel columns: the subject ids, the
    relation names and the object ids, each edge once, sorted by (subject
    id, relation, object id), the order save_kb writes.

    An id is the str its node holds, and a relation that load_kb reads is
    the vocabulary's own str. The constructor keeps columns that are
    already in that order, as load_kb reads them; ``of`` sorts. Iterating
    yields (subject id, relation, object id) tuples, made on the fly;
    ``len`` and ``in`` work as on a list of them. Equality compares the
    columns.
    """

    __slots__ = ("subjects", "relations", "objects")

    def __init__(self, subjects: list[str], relations: list[str], objects: list[str]) -> None:
        self.subjects, self.relations, self.objects = subjects, relations, objects

    @classmethod
    def of(cls, edges: Iterable[Sequence[str]]) -> "EdgeColumns":
        """The columns of ``edges``, (subject id, relation, object id) triples
        in any order; a repeated edge is kept once."""
        rows = sorted(set(map(tuple, edges)))
        return cls(*map(list, zip(*rows))) if rows else cls([], [], [])

    def __len__(self) -> int:
        return len(self.subjects)

    def __iter__(self):
        return zip(self.subjects, self.relations, self.objects)

    def __contains__(self, edge: object) -> bool:
        return edge in iter(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EdgeColumns):
            return NotImplemented
        return (self.subjects == other.subjects and self.relations == other.relations
                and self.objects == other.objects)

    __hash__ = None  # type: ignore[assignment]


class PropertyGraph:
    """A knowledge graph, made whole by ``build_graph`` or ``load_kb``.

    ``nodes`` maps each id to its node. ``edges`` is an ``EdgeColumns``,
    each (subject id, relation name, object id) once, in canonical order.
    ``vectors`` is a ``VectorTable`` of every function's sparse vector,
    rows in ascending function-id order, and ``embedder_meta`` names the
    provider that made them. The constructor also takes the edges as an
    iterable of triples and the vectors as a mapping of (buckets, values)
    pairs, and makes them columns there, once; a vector that no table
    holds raises ValueError (see ``VectorTable.of``). Nodes are never added
    or removed: only ``build_kb`` stamps the function payloads and sets the
    vectors and the metadata, before the first query, so the function-node
    list worked out here and what ``retriever`` keeps never go stale.
    """

    def __init__(self, nodes: dict[str, EntityNode], edges: Iterable[Sequence[str]],
                 vectors: Mapping[str, Sequence], embedder_meta: Optional[dict]) -> None:
        self.nodes = nodes
        self.edges = edges if type(edges) is EdgeColumns else EdgeColumns.of(edges)
        self.vectors = vectors if type(vectors) is VectorTable else VectorTable.of(vectors)
        self.embedder_meta = embedder_meta
        self._functions = [node for node in nodes.values() if node.kind == "function"]
        self._retriever = None  # see retriever

    def function_nodes(self) -> list[EntityNode]:
        return list(self._functions)

    def functions(self) -> list[FunctionUnit]:
        return [n.payload for n in self.function_nodes() if n.payload is not None]

    def retriever(self, build: Callable[["PropertyGraph"], object]):
        """What ``build(self)`` returns on the first call, kept from then on:
        ``repair.retrieve`` keeps this graph's vector index and query
        provider here.

        Concurrent first callers may all build at once; that race is
        benign, because each uses what it built or read, all of them are
        equal, and the last store wins.
        """
        retriever = self._retriever
        if retriever is None:
            retriever = self._retriever = build(self)
        return retriever

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PropertyGraph):
            return NotImplemented
        return (self.nodes == other.nodes
                and self.edges == other.edges
                and self.vectors == other.vectors
                and self.embedder_meta == other.embedder_meta)

    __hash__ = None  # type: ignore[assignment]


#: The fewest normalized tokens a function needs to join a clone group.
CLONE_MIN_TOKENS = 12


@dataclass(slots=True)
class CloneGroupTable:
    """Clone groups keyed by normalized-token hash.

    Groups cover exactly the functions at or above ``min_tokens``, the
    constant ``CLONE_MIN_TOKENS``; singleton groups are kept so group size
    is always defined.
    """

    min_tokens: ClassVar[int] = CLONE_MIN_TOKENS  # slots make it read-only on a table
    groups: dict[str, list[str]] = field(default_factory=dict)

    def multi_member_groups(self) -> dict[str, list[str]]:
        return {cid: members for cid, members in self.groups.items() if len(members) >= 2}


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def build_graph(triples: list[Triple], functions: list[FunctionUnit]) -> PropertyGraph:
    """The graph of ``functions``, which hold each id once, and the nodes and
    edges that ``triples`` name, each once: the nodes in their first order,
    the edges in canonical order (``EdgeColumns``).

    Function nodes come from ``functions`` only: a Function-kind endpoint
    whose id is not among them means the triples and the function list
    disagree, and raises GraphError("DanglingEndpoint"). Another endpoint's
    node comes from the first triple that names its id. The graph has no
    vectors and no metadata yet.
    """
    nodes = {fn.id: EntityNode(fn.id, "function", fn.qualified_name, fn) for fn in functions}
    for ref in dict.fromkeys(chain.from_iterable((subject, obj)
                                                 for subject, _relation, obj in triples)):
        if ref.id not in nodes:
            if ref.kind == "function":
                raise GraphError("DanglingEndpoint",
                                 f"edge endpoint {ref.id!r} is not a known node")
            nodes[ref.id] = EntityNode(ref.id, ref.kind, ref.label)
    edges = EdgeColumns.of((subject.id, relation, obj.id) for subject, relation, obj in triples)
    return PropertyGraph(nodes, edges, {}, None)


def clone_key(normalized: Sequence[str]) -> str:
    """Clone-group key: hash of a function's normalized token sequence."""
    joined = " ".join(normalized)
    return sha256(joined.encode("utf-8")).hexdigest()[:16]


def _clone_groups(pairs: Iterable[tuple[str, Optional[str]]]) -> CloneGroupTable:
    """The clone groups of the (function id, clone id) ``pairs``: each
    function with a clone id joins the group of it; members ascend by id."""
    groups: dict[str, list[str]] = {}
    for function_id, clone_id in pairs:
        if clone_id is not None:
            groups.setdefault(clone_id, []).append(function_id)
    for members in groups.values():
        members.sort()
    return CloneGroupTable(groups)


def _stamps(function_ids: Sequence[str], clone_ids: Sequence[Optional[str]],
            edges: EdgeColumns) -> list[int]:
    """Each function's guf, in ``function_ids`` order: how many functions share
    its clone id in ``clone_ids`` (1 without one) + its CALLS in-degree,
    counted from the relation and object columns of ``edges``."""
    sizes = Counter(clone_ids)
    # edges are unique, so each caller counts once
    callers = Counter(compress(edges.objects, map("CALLS".__eq__, edges.relations)))
    return [(1 if clone_id is None else sizes[clone_id]) + callers.get(function_id, 0)
            for function_id, clone_id in zip(function_ids, clone_ids)]


def _clone_id_fault(function_ids: Sequence[str], token_counts: Sequence[int],
                    clone_ids: Sequence[Optional[str]]) -> Optional[str]:
    """Why save_kb and load_kb refuse these functions' clone ids, or None: a
    function has a clone id exactly if it has ``CLONE_MIN_TOKENS`` tokens or
    more, as ``build_kb`` gives them."""
    for function_id, count, clone_id in zip(function_ids, token_counts, clone_ids):
        if (clone_id is None) != (count < CLONE_MIN_TOKENS):
            return f"function {function_id!r}: clone id {clone_id!r} at {count} tokens"
    return None


def assign_clone_groups(functions: Iterable[FunctionUnit],
                        keys: Mapping[str, str]) -> CloneGroupTable:
    """Group functions by their ``clone_key``s, ``keys`` by function id.

    Functions below ``CLONE_MIN_TOKENS`` appear in no group; everything else
    lands in exactly one group (possibly singleton). ``load_kb`` derives a
    file's groups through the same private helper, so a wrapper around this
    name times the build alone.
    """
    return _clone_groups((fn.id, keys[fn.id] if fn.token_count >= CLONE_MIN_TOKENS else None)
                         for fn in functions)


def compute_guf(graph: PropertyGraph, clones: CloneGroupTable,
                ) -> list[tuple[Optional[str], int]]:
    """Each function node's (clone_id, guf), in ``function_nodes()`` order,
    from ``clones`` and the CALLS edges: guf = clone-group size + CALLS
    in-degree, where a function in no group counts as a group of one."""
    clone_of = {member: cid for cid, members in clones.groups.items() for member in members}
    ids = [node.id for node in graph.function_nodes()]
    clone_ids = [clone_of.get(function_id) for function_id in ids]
    return list(zip(clone_ids, _stamps(ids, clone_ids, graph.edges)))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

#: node-section column -> the JSON types save_kb writes in it (exact types: a
#: bool is no int). ``id`` and ``kind`` run over every node, in ascending id
#: order, and ``label`` over the nodes of other kinds than function.
_NODE_COLUMNS = {"id": {str}, "kind": {str}}
_LABEL_COLUMNS = {"label": {str}}
#: The columns that run over the function nodes only, in that same order;
#: they are FunctionUnit's fields from ``contract_name`` to ``clone_id``, in
#: its order. Its ``guf`` is derived.
_FUNCTION_COLUMNS = {
    "contract_name": {str},
    "name": {str},
    "source_text": {str},
    "signature": {str},
    "token_count": {int},
    "clone_id": {str, type(None)},
}
#: Each node kind's name -> that name: a kind load_kb reads maps to the one
#: str of the vocabulary, so the graph holds one object per kind, not one per
#: node, and an unknown one is a KeyError.
_KINDS = {kind: kind for subject_kind, object_kinds in RELATION_TYPING.values()
          for kind in (subject_kind, *object_kinds)}
#: The relations' names, sorted: a relation's code in the edge section is its
#: index here, so an edge holds the vocabulary's own str; and name -> code.
_RELATION_NAMES = tuple(sorted(RELATION_TYPING))
_RELATION_CODES = {name: code for code, name in enumerate(_RELATION_NAMES)}


def _canonical_json(value) -> bytes:
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _signature_text(signature: SignatureFeatures) -> str:
    """The signature's features, sorted, joined by single spaces. A feature
    holds no whitespace, so splitting the text gives them back exactly;
    ValueError for an empty feature, which the text cannot hold."""
    if "" in signature:
        raise ValueError("a signature has an empty feature")
    return " ".join(signature.sorted_features())


def _node_section(nodes: list[EntityNode], edges: EdgeColumns) -> dict:
    """The node section of ``nodes``, which are in ascending id order.

    Raises ValueError for a function node without a payload or labelled
    other than its payload's qualified name, clone ids that load_kb refuses
    (``_clone_id_fault``), a guf other than the one load_kb derives from
    the clone ids and ``edges``, or a signature that ``_signature_text``
    cannot write.
    """
    functions = [node.payload for node in nodes if node.kind == "function"]
    if any(fn is None for fn in functions):
        raise ValueError("a function node has no payload")
    if any(node.label != node.payload.qualified_name for node in nodes if node.kind == "function"):
        raise ValueError("a function node's label is not its qualified name")
    signatures = [fn.signature for fn in functions]
    # few distinct signatures recur over many functions: each is rendered once
    texts = {signature: _signature_text(signature) for signature in set(signatures)}
    section = {
        "id": [node.id for node in nodes],
        "kind": [node.kind for node in nodes],
        "label": [node.label for node in nodes if node.kind != "function"],
        "contract_name": [fn.contract_name for fn in functions],
        "name": [fn.name for fn in functions],
        "source_text": [fn.source_text for fn in functions],
        "signature": list(map(texts.__getitem__, signatures)),
        "token_count": [fn.token_count for fn in functions],
        "clone_id": [fn.clone_id for fn in functions],
    }
    ids = [fn.id for fn in functions]
    clone_ids = section["clone_id"]
    if (fault := _clone_id_fault(ids, section["token_count"], clone_ids)) is not None:
        raise ValueError(fault)
    for fn, guf in zip(functions, _stamps(ids, clone_ids, edges)):
        if fn.guf != guf:
            raise ValueError(f"function {fn.id!r}: guf {fn.guf}, where load_kb derives {guf}")
    return section


def _edge_section(ids: list[str], edges: EdgeColumns) -> list:
    """The edge section's three parts: the subject positions (u32), the
    relation codes (u8) and the object positions (u32). A position indexes
    ``ids``, which ascend, so the rows are in the order ``edges`` holds
    them, which is already sorted. ValueError for an endpoint that is no
    node; every relation must be a known one."""
    position = {node_id: index for index, node_id in enumerate(ids)}
    try:
        subjects, objects = (array(BUCKET_TYPE, list(map(position.__getitem__, column)))
                             for column in (edges.subjects, edges.objects))
    except KeyError as exc:
        raise ValueError(f"edge endpoint {exc.args[0]!r} is not a node") from None
    codes = bytes(map(_RELATION_CODES.__getitem__, edges.relations))
    return [_little_endian(subjects), codes, _little_endian(objects)]


def _vector_section(vectors: VectorTable) -> list:
    """The vector section's three parts, the table's own columns: its row
    ends (``starts`` without the leading 0), its buckets and its values.
    On a big-endian machine each is a swapped copy; the table is never
    changed."""
    parts = [vectors.starts[1:], vectors.bucket_column, vectors.value_column]
    if sys.byteorder == "big":
        parts = [_little_endian(array(part.typecode, part)) for part in parts]
    return parts


def _write_section(handle, parts: list) -> None:
    """One section: its length as a u32, then each of its ``parts``' bytes."""
    handle.write(struct.pack("<I", sum(memoryview(part).nbytes for part in parts)))
    for part in parts:
        handle.write(part)


def _meta_fault(meta) -> Optional[str]:
    """Why save_kb and load_kb refuse ``meta`` as embedder metadata, or None:
    it must be an object naming a provider in ``embedding.PROVIDERS``
    (HashingEmbedder's if none), with any ``dimension`` an int in
    1..``MAX_DIMENSION`` and any ``corpus_hashes`` an object of strings."""
    if not isinstance(meta, dict):
        return "metadata is not an object"
    name = meta.get("name", HashingEmbedder.name)
    if type(name) is not str or name not in PROVIDERS:
        return f"unknown embedder {name!r}"
    if "dimension" in meta and (type(meta["dimension"]) is not int
                                or not 1 <= meta["dimension"] <= MAX_DIMENSION):
        return f"dimension {meta['dimension']!r} is not an int in 1..2**32"
    hashes = meta.get("corpus_hashes", {})
    if type(hashes) is not dict or not all(type(value) is str for value in hashes.values()):
        return "corpus_hashes is not an object of strings"
    return None


def save_kb(graph: PropertyGraph, clones: CloneGroupTable, path: str) -> None:
    """Write the knowledge base in format 6; canonical, so double-save is byte-identical.

    Nodes are listed in ascending id order, and JSON keys are sorted. The
    edges and the vectors are written from the graph's columns, which are
    already in the file's order: nothing is sorted and no vector is copied.
    Nothing of ``clones`` is written (load_kb derives it); the parameter
    stays for the callers' call shape. The file is streamed, section by
    section, with no copy of the whole file in memory. Raises ValueError,
    before the file is opened, if a function node has no payload or is
    labelled other than its payload's qualified name, a payload's clone id
    or guf is not the one load_kb reads or derives (``_node_section``), a
    node kind or relation is not in ``RELATION_TYPING``'s vocabulary, an
    edge endpoint is no node, the vectors' ids are not exactly the function
    nodes', a vector bucket is at or past the metadata's dimension, a
    signature has an empty feature, or the metadata is one load_kb refuses
    (``_meta_fault``); TypeError, as early, for metadata that JSON cannot
    hold.
    """
    meta = graph.embedder_meta or {}
    if (fault := _meta_fault(meta)) is not None:
        raise ValueError(fault)
    ids = sorted(graph.nodes)
    nodes = [graph.nodes[nid] for nid in ids]
    node_section = _node_section(nodes, graph.edges)
    for what, names, vocabulary in (("node kind", node_section["kind"], _KINDS),
                                    ("relation", graph.edges.relations, _RELATION_CODES)):
        unknown = set(names).difference(vocabulary)
        if unknown:
            raise ValueError(f"unknown {what} {min(map(repr, unknown))}")
    edges = _edge_section(ids, graph.edges)
    vectors = graph.vectors
    function_ids = [node.id for node in nodes if node.kind == "function"]
    if vectors.ids != function_ids:
        missing = set(function_ids).difference(vectors.ids)
        if missing:
            raise ValueError(f"function {min(missing)!r} has no vector")
        raise ValueError(f"vector of {min(set(vectors.ids).difference(function_ids))!r}, "
                         f"which is no function node")
    # the table holds every row strictly ascending (VectorTable), so with the
    # largest bucket below the dimension every row is one load_kb accepts
    dimension = meta_dimension(meta)
    buckets = vectors.bucket_column
    if buckets and max(buckets) >= dimension:
        raise ValueError(f"vector bucket {max(buckets)} is not in range({dimension})")
    # the metadata, the one section of arbitrary JSON, is encoded before the
    # file is opened, so a value JSON cannot hold raises with no file written
    meta = _canonical_json(meta)
    with open(path, "wb") as handle:
        handle.write(_MAGIC + struct.pack("<H", _VERSION))
        # the node section, the largest, is encoded, written and let go first
        _write_section(handle, [_canonical_json(node_section)])
        for parts in (edges, [meta], _vector_section(vectors)):
            _write_section(handle, parts)


def _columns(section: dict, types: Mapping[str, set], length: Optional[int] = None,
             ) -> list[list]:
    """The columns of ``section`` that ``types`` names, in its order, if each
    is a list of ``length`` items (by default, as many as the first column
    has) and each item is of exactly one of its column's types."""
    columns = [section[name] for name in types]
    for name, column in zip(types, columns):
        if type(column) is not list:
            raise ValueError(f"column {name!r} is not a list")
        if length is None:
            length = len(column)
        if len(column) != length:
            raise ValueError(f"column {name!r} has {len(column)} items, not {length}")
        if not set(map(type, column)) <= types[name]:
            raise ValueError(f"column {name!r} holds an item of another type than "
                             f"{sorted(kind.__name__ for kind in types[name])}")
    return columns


def _signature(text: str) -> SignatureFeatures:
    """The signature that ``_signature_text`` wrote as ``text``, if its
    features are nonempty and strictly ascending (``""`` has none)."""
    features = text.split(" ") if text else []
    # "" sorts first, so of strictly ascending features only the first can be empty
    if features and not (features[0] and _ascending(features)):
        raise ValueError(f"signature {text!r} is not nonempty features in strictly "
                         f"ascending order")
    return SignatureFeatures(frozenset(features))


def _read_graph(section, edge_section: memoryview) -> tuple[
        dict[str, EntityNode], EdgeColumns, list[str], CloneGroupTable]:
    """The node section's nodes by id and the edge section's edges, if
    save_kb could have written them, with the function nodes' ids and their
    clone groups.

    The label column holds one entry per node of another kind than function
    and the function columns one per function node. A function has a clone
    id exactly if it has ``CLONE_MIN_TOKENS`` tokens or more; the id stands
    for its clone key, from which, with the CALLS edges, its group and guf
    are derived as ``build_kb`` derives them.
    """
    if type(section) is not dict or section.keys() != (
            _NODE_COLUMNS.keys() | _LABEL_COLUMNS.keys() | _FUNCTION_COLUMNS.keys()):
        raise ValueError("the node section does not have exactly the columns save_kb writes")
    ids, kind_names = _columns(section, _NODE_COLUMNS)
    if not _ascending(ids):
        raise ValueError("node ids are not in strictly ascending order")
    kinds = list(map(_KINDS.__getitem__, kind_names))  # KeyError: an unknown kind
    function_ids = [nid for nid, kind in zip(ids, kinds) if kind == "function"]
    (labels,) = _columns(section, _LABEL_COLUMNS, len(ids) - len(function_ids))
    contract_names, names, sources, signatures, token_counts, clone_ids = _columns(
        section, _FUNCTION_COLUMNS, len(function_ids))
    edges = _read_edges(edge_section, ids, kinds)
    if (fault := _clone_id_fault(function_ids, token_counts, clone_ids)) is not None:
        raise ValueError(fault)
    # a contract name, a function name or a clone id recurs over many
    # functions: its functions share one str, as build_kb's payloads do
    shared = {}
    contract_names, names, clone_ids = (
        [shared.setdefault(text, text) for text in column]
        for column in (contract_names, names, clone_ids))
    # few distinct signatures recur over many functions: each is read once,
    # and its functions share the immutable SignatureFeatures
    read = {text: _signature(text) for text in set(signatures)}
    payloads = dict(zip(function_ids, map(
        FunctionUnit, function_ids, contract_names, names, sources,
        map(read.__getitem__, signatures), token_counts, clone_ids,
        _stamps(function_ids, clone_ids, edges))))
    others = iter(labels)  # a function node's label is its qualified name
    nodes = {nid: EntityNode(nid, kind, next(others) if fn is None else fn.qualified_name, fn)
             for nid, kind, fn in zip(ids, kinds, map(payloads.get, ids))}
    return nodes, edges, function_ids, _clone_groups(zip(function_ids, clone_ids))


def _read_edges(section: memoryview, ids: list[str], kinds: list[str]) -> EdgeColumns:
    """The edge section's edges, if save_kb could have written it for nodes
    of ``ids`` and ``kinds``: 9 bytes per edge, each position an index of
    ``ids``, each relation code an index of the sorted relation names, the
    rows in strictly ascending order, and each relation between nodes of
    the kinds it joins."""
    count, rest = divmod(len(section), 9)
    if rest:
        raise ValueError(f"edge section of {len(section)} bytes is not 9 bytes per edge")
    subjects = _array(BUCKET_TYPE, section[:4 * count])
    codes = bytes(section[4 * count:5 * count])
    objects = _array(BUCKET_TYPE, section[5 * count:])
    for positions in (subjects, objects):
        if positions and max(positions) >= len(ids):
            raise ValueError(f"an edge position is outside 0..{len(ids) - 1}")
    if codes and max(codes) >= len(_RELATION_NAMES):
        raise ValueError(f"relation code {max(codes)} is outside "
                         f"0..{len(_RELATION_NAMES) - 1}")
    rows = zip(subjects, codes, objects)
    later_rows = zip(*(islice(column, 1, None) for column in (subjects, codes, objects)))
    if not all(map(lt, rows, later_rows)):
        raise ValueError("edges are not in strictly ascending order")
    # each distinct (subject kind, relation, object kind) is checked once
    for subject_kind, code, object_kind in set(zip(
            map(kinds.__getitem__, subjects), codes, map(kinds.__getitem__, objects))):
        relation = _RELATION_NAMES[code]
        kind, object_kinds = RELATION_TYPING[relation]
        if subject_kind != kind or object_kind not in object_kinds:
            raise ValueError(f"a {relation} edge joins a {subject_kind} node "
                             f"to a {object_kind} node")
    return EdgeColumns(list(map(ids.__getitem__, subjects)),
                       list(map(_RELATION_NAMES.__getitem__, codes)),
                       list(map(ids.__getitem__, objects)))


def _array(typecode: str, data: memoryview) -> array:
    """The little-endian items of ``data`` as an array of ``typecode``."""
    items = array(typecode)
    items.frombytes(data)
    return _little_endian(items)


def _vectors(section: memoryview, function_ids: list[str], dimension: int) -> VectorTable:
    """The fourth section's vectors, if save_kb could have written it for
    ``function_ids``: one row end for each of them, the ends ascending, a
    length of exactly ``4 * len(function_ids) + 12 *`` the last end, and
    each vector's buckets strictly ascending below ``dimension`` and its
    values ``within_bound`` (see ``_vector_fault``).

    The ends, the buckets and the values are each read as one array; after
    every row is checked, the table keeps those arrays.
    """
    head = 4 * len(function_ids)
    if len(section) < head:
        raise ValueError(f"vector section of {len(section)} bytes is shorter than "
                         f"{len(function_ids)} row ends")
    starts = array(BUCKET_TYPE, [0])
    starts.frombytes(section[:head])
    total = _little_endian(starts)[-1]
    # checked before anything else is read, so a corrupt end allocates nothing
    if len(section) != head + 12 * total:
        raise ValueError(f"vector section of {len(section)} bytes, where its row ends "
                         f"make {head + 12 * total}")
    if not all(map(le, starts, islice(starts, 1, None))):
        raise ValueError("vector row ends are not in ascending order")
    buckets = _array(BUCKET_TYPE, section[head:head + 4 * total])
    values = _array("d", section[head + 4 * total:])
    for function_id, start, end in zip(function_ids, starts, islice(starts, 1, None)):
        fault = _vector_fault((buckets[start:end], values[start:end]), dimension)
        if fault is not None:
            raise ValueError(f"node {function_id!r}: {fault}")
    return VectorTable(function_ids, starts, buckets, values)


def load_kb(path: str) -> tuple[PropertyGraph, CloneGroupTable]:
    """Read a format-6 knowledge base written by save_kb; never yields a partial graph.

    The graph and its clone groups equal the ones build_kb made. Every
    section must be as save_kb writes it for such a graph.
    FormatError("Corrupt") is raised, among other cases, for a JSON section
    that does not decode (so also for one nested too deeply or holding an
    integer of more digits than ``int`` converts); a node section without
    exactly the columns save_kb writes (a format-2 ``"vector"`` or a
    format-4 ``"guf"`` among them); a column that is not a list, is not as
    long as the others of its kind (see ``_read_graph``), or holds an item
    of another type than save_kb writes there (a bool is no int); ids, edges
    or signature features out of strictly ascending order (so also a
    repeat); an empty signature feature; an unknown node kind or relation
    code; an edge section whose length is not 9 bytes per edge; an edge
    position outside the id column; an edge whose relation does not fit its
    endpoints' kinds; a ``clone_id`` on a function below
    ``CLONE_MIN_TOKENS`` tokens, or none on one at or above it; a vector
    section whose row ends do not cover exactly the function nodes, do not
    ascend, or make another length than it has (checked before any bucket
    or value is read); vector buckets not strictly ascending below the
    metadata's dimension; a vector not ``within_bound``: not finite or of a
    norm above 2**510, the bound every provider's ``embed`` holds, so that
    ``knn`` cannot overflow; or metadata that save_kb would refuse (see
    ``_meta_fault``). A file of format 1 to 5 raises
    FormatError("VersionMismatch").
    """
    with open(path, "rb") as handle:
        blob = handle.read()
    view = memoryview(blob)  # the sections are slices of it, not copies
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
    payloads = []
    for index in range(4):
        if offset + 4 > len(blob):
            raise FormatError("Truncated", f"{path}: section {index} length missing")
        (length,) = struct.unpack_from("<I", blob, offset)
        offset += 4
        if offset + length > len(blob):
            raise FormatError("Truncated", f"{path}: section {index} payload cut short")
        payloads.append(view[offset:offset + length])
        offset += length
    if offset != len(blob):
        raise FormatError("Corrupt", f"{path}: {len(blob) - offset} trailing byte(s)")
    sections = []
    for index in (0, 2):  # the node and the metadata sections are JSON
        try:
            sections.append(json.loads(str(payloads[index], "utf-8")))
        except (ValueError, RecursionError) as exc:  # ValueError: also bad UTF-8, huge ints
            raise FormatError("Corrupt", f"{path}: section {index} undecodable ({exc})") from None

    node_section, meta = sections
    _, edge_section, _, vector_section = payloads
    if (fault := _meta_fault(meta)) is not None:
        raise FormatError("Corrupt", f"{path}: {fault}")
    try:
        nodes, edges, function_ids, clones = _read_graph(node_section, edge_section)
        # the bucket bound; provider_from_meta's dimension too
        vectors = _vectors(vector_section, function_ids, meta_dimension(meta))
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError("Corrupt", f"{path}: inconsistent payload ({exc})") from None
    return PropertyGraph(nodes, edges, vectors, meta or None), clones


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


def _reply_vectors(reply: Sequence[tuple[Iterable[int], Iterable[float]]], count: int,
                   dimension: int, path: str) -> list[EmbeddingVector]:
    """The provider's ``reply``, each (buckets, values) pair made an
    ``EmbeddingVector``, if it holds ``count`` of them, each one that a
    knowledge base of ``dimension`` can hold (see ``_vector_fault``); else
    ProviderError("MalformedReply"), naming ``path``."""
    if len(reply) != count:
        raise ProviderError("MalformedReply", f"{path}: provider reply rejected: "
                            f"{len(reply)} vectors for {count} functions")
    vectors = []
    for pair in reply:
        try:
            vector = EmbeddingVector(*pair)
        except (TypeError, OverflowError):
            fault = "vector is not a pair of int buckets and values a float can hold"
        else:
            fault = _vector_fault(vector, dimension)
        if fault is not None:
            raise ProviderError("MalformedReply", f"{path}: provider reply rejected: {fault}")
        vectors.append(vector)
    return vectors


def build_kb(paths: Iterable[str], embedder,
             ) -> tuple[PropertyGraph, CloneGroupTable, BuildReport]:
    """Parse a corpus, build the graph, group clones, score usage, embed.

    ``embedder`` is a provider: ``name`` and ``dimension`` attributes and an
    ``embed(pairs)`` method that returns one sparse vector per (source
    text, declaration tokens) pair, ``within_bound``: an ``EmbeddingVector``
    or a (buckets, values) pair of sequences. Each reply's vectors are
    appended straight into the columns of ``graph.vectors``, which are put
    in function-id order once, at the end. ``repair.retrieve`` embeds its queries
    with the same call on the provider the metadata names. A reply of
    another length, or with a vector that the knowledge base cannot hold,
    raises ProviderError("MalformedReply") naming the file.
    Files that fail to parse or duplicate an earlier file (by canonical
    token hash) are skipped with a report entry.

    Files are processed one at a time: each is lexed and parsed once, and
    its hash, triples, clone keys and embeddings all come from that parse
    before the next file is read, so only one file's tokens are alive at a
    time. The first payload of an id wins, here and nowhere else: a later
    function of the same id (the same contract, name and normalized
    tokens) adds only its triples. Each file's functions of new ids are
    embedded with one ``embed`` call. ``build_graph`` then makes the graph
    of the kept payloads, functions of ``CLONE_MIN_TOKENS`` or more are
    grouped by their clone keys, and each function node gets its payload
    with its clone id and guf from one ``FunctionUnit`` constructor call;
    the payloads of equal signatures share one ``SignatureFeatures``, as
    ``load_kb``'s do.
    The report lists every parse diagnostic before every triple diagnostic.
    """
    report = BuildReport()
    corpus_hashes: dict[str, str] = {}
    triples: list[Triple] = []
    triple_diagnostics: list[str] = []
    payloads: dict[str, FunctionUnit] = {}
    keys: dict[str, str] = {}
    rows = _TableRows()  # the vectors, in the order their functions are first seen
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
        for decl in unit.declarations():
            fn = decl.fn
            if fn.id not in payloads:
                payloads[fn.id] = fn
                keys[fn.id] = clone_key(decl.normalized)
                new[fn.id] = (fn.source_text, unit.tokens[decl.start:decl.end])
        if new:
            reply = embedder.embed(list(new.values()))
            for function_id, vector in zip(
                    new, _reply_vectors(reply, len(new), embedder.dimension, path)):
                rows.add(function_id, vector)
    report.diagnostics.extend(triple_diagnostics)

    graph = build_graph(triples, list(payloads.values()))
    clones = assign_clone_groups(graph.functions(), keys)
    stamps = compute_guf(graph, clones)
    # one SignatureFeatures per distinct signature, shared by its functions
    signatures: dict[SignatureFeatures, SignatureFeatures] = {}
    for node, (clone_id, guf) in zip(graph.function_nodes(), stamps):
        fn = node.payload
        signature = signatures.setdefault(fn.signature, fn.signature)
        node.payload = FunctionUnit(fn.id, fn.contract_name, fn.name, fn.source_text,
                                    signature, fn.token_count, clone_id, guf)
    graph.vectors = rows.table()
    graph.embedder_meta = {
        "name": embedder.name,
        "dimension": embedder.dimension,
        "corpus_hashes": corpus_hashes,
    }

    report.function_count = len(graph.function_nodes())
    report.edge_count = len(graph.edges)
    report.clone_groups = len(clones.multi_member_groups())
    return graph, clones, report
