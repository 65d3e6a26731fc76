"""Property graph over contract entities and its on-disk knowledge base.

Nodes are contracts, functions, state variables, modifiers, and type names;
edges are the extracted triples (deduplicated). A node's kind and an edge's
relation are their names, the plain strings that ``ingest.RELATION_TYPING``
lists and the file stores. Function nodes carry their FunctionUnit payload,
a clone-group id, and a usage frequency used by the trust rescorer. A graph
is made whole, once: by ``build_graph`` from a corpus's triples and
functions, or by ``load_kb`` from a file, and is only read after that. The
whole bundle serializes to a canonical binary container so that saving the
same knowledge base twice yields byte-identical files.

The container (format 5) is the magic ``SCPK``, a little-endian u16
version, and four sections, each a u32 length and its bytes. The first
three are canonical JSON: the nodes, the edges and the embedder metadata.
The node and edge sections are columns: objects of equal-length arrays,
one per field. The node section's ``id`` and ``kind`` run over every node
in ascending id order; its ``label`` over the other nodes, and its
``contract_name``, ``name``, ``source_text``, ``signature``,
``token_count`` and ``clone_id`` over the function nodes, each in that
same order; ``load_kb`` derives a function node's label, its qualified
name, and the clone groups and every guf. A signature is its sorted
features joined by single spaces (a feature holds no whitespace; ``""``
has none). The edge section's ``subject`` and ``object`` are positions in
the ``id`` array and its ``relation`` the relation's name, sorted by
(subject, relation, object), which is also the order of the edges' ids.
The fourth section holds every function's embedding as a sparse vector, in
the order of the function nodes: one u32 count of nonzero buckets per
function, then all their buckets as u32, then all their values as f64,
everything little-endian, so its length is exactly ``4 * functions + 12 *
sum(counts)``. A vector's buckets are strictly ascending, each below the
metadata's ``dimension`` (256 when it has none); every other bucket is
0.0, so a dense vector is stored with its zeros dropped, and every value
round-trips bit for bit. Format 1 stored every vector densely in its node
record, format 2 as a ``[[buckets...], [values...]]`` pair there, format 3
held one JSON record per node and one list per edge, and format 4 also
stored the clone groups, their threshold, every guf and every label; none
of them is read, and such a file is rebuilt from its corpus.
"""

from __future__ import annotations

import json
import struct
from array import array
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, islice
from operator import lt
from typing import Callable, ClassVar, Iterable, Mapping, Optional, Sequence

from .embedding import (
    BUCKET_TYPE,
    PROVIDERS,
    EmbeddingVector,
    HashingEmbedder,
    ProviderError,
    _little_endian,
    meta_dimension,
    within_bound,
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

_MAGIC = b"SCPK"
_VERSION = 5


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


class PropertyGraph:
    """A knowledge graph, made whole by ``build_graph`` or ``load_kb``.

    ``nodes`` maps each id to its node, ``edges`` holds each (subject id,
    relation name, object id) once, ``vectors`` maps function ids to their
    sparse ``EmbeddingVector``s, each a u32 array of buckets and an
    ``array("d")`` of values, and ``embedder_meta`` names the provider
    that made them. Nodes are never added or removed: only
    ``build_kb`` stamps the function payloads and sets the vectors and the
    metadata, before the first query, so the function-node list worked out
    here and what ``retriever`` keeps never go stale.
    """

    def __init__(self, nodes: dict[str, EntityNode], edges: list[tuple[str, str, str]],
                 vectors: dict[str, EmbeddingVector], embedder_meta: Optional[dict]) -> None:
        self.nodes = nodes
        self.edges = edges
        self.vectors = vectors
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
                and Counter(self.edges) == Counter(other.edges)
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
    edges that ``triples`` name, each once, in their first order.

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
    edges = list(dict.fromkeys((subject.id, relation, obj.id)
                               for subject, relation, obj in triples))
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
            edges: Iterable[tuple[str, str, str]]) -> list[int]:
    """Each function's guf, in ``function_ids`` order: how many functions share
    its clone id in ``clone_ids`` (1 without one) + its CALLS in-degree."""
    sizes = Counter(clone_ids)
    # edges are unique, so each caller counts once
    callers = Counter(object_id for _subject_id, relation, object_id in edges
                      if relation == "CALLS")
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

#: The largest embedding dimension a knowledge base can hold: every bucket
#: lies below it and is stored as a u32.
MAX_DIMENSION = 2 ** 32

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
#: edge-section column -> its JSON type: the subject's and the object's
#: positions in the id column, and the relation's name
_EDGE_COLUMNS = {"subject": {int}, "relation": {str}, "object": {int}}

#: Each node kind's name -> that name, and each relation's -> that name: a name
#: load_kb reads maps to the one str of the vocabulary, so the graph holds one
#: object per name, not one per node or edge, and an unknown one is a KeyError.
_KINDS = {kind: kind for subject_kind, object_kinds in RELATION_TYPING.values()
          for kind in (subject_kind, *object_kinds)}
_RELATIONS = {relation: relation for relation in RELATION_TYPING}


def _canonical_json(value) -> bytes:
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _signature_text(signature: SignatureFeatures) -> str:
    """The signature's features, sorted, joined by single spaces. A feature
    holds no whitespace, so splitting the text gives them back exactly;
    ValueError for an empty feature, which the text cannot hold."""
    if "" in signature:
        raise ValueError("a signature has an empty feature")
    return " ".join(signature.sorted_features())


def _node_section(nodes: list[EntityNode], edges: Iterable[tuple[str, str, str]]) -> dict:
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


def _edge_section(ids: list[str], edges: Iterable[tuple[str, str, str]]) -> dict:
    """The edge section: the edges as (subject position, relation name, object
    position) rows, sorted, one column per field. A position indexes ``ids``,
    which ascend, so this is also the order of the edges' ids."""
    position = {node_id: index for index, node_id in enumerate(ids)}
    rows = sorted((position[s], r, position[o]) for s, r, o in edges)
    return dict(zip(_EDGE_COLUMNS, map(list, zip(*rows)) if rows else ([], [], [])))


def _vector_section(function_ids: list[str], vectors: Mapping[str, EmbeddingVector]) -> bytes:
    """The vectors of ``function_ids``, in that order, as the fourth section:
    the counts, the buckets and the values, each gathered into one array and
    written as its bytes.

    Raises ValueError for a function without a vector, a vector with more
    buckets than values or fewer, or a bucket or value that a u32 or an
    f64 cannot hold (a bucket of 2**32 or more, or below 0).
    """
    try:
        pairs = [vectors[function_id] for function_id in function_ids]
    except KeyError as exc:
        raise ValueError(f"function {exc.args[0]!r} has no vector") from None
    counts, buckets, values = array(BUCKET_TYPE), array(BUCKET_TYPE), array("d")
    for vector_buckets, vector_values in pairs:
        if len(vector_buckets) != len(vector_values):
            raise ValueError("a vector has more buckets than values, or fewer")
        try:
            buckets.extend(vector_buckets)
            values.extend(vector_values)
        except (OverflowError, TypeError) as exc:
            raise ValueError(f"a vector does not fit u32 buckets and f64 values ({exc})") from None
        counts.append(len(vector_buckets))
    return b"".join(_little_endian(column).tobytes() for column in (counts, buckets, values))


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
    """Write the knowledge base in format 5; canonical, so double-save is byte-identical.

    Nodes are listed in ascending id order and edges sorted by their
    positions and relation; JSON keys are sorted. The function nodes'
    vectors go to the binary fourth section in node order, as they are
    held, with no dense copy made. Nothing of ``clones`` is written
    (load_kb derives it); the parameter stays for the callers' call shape.
    The file is streamed, section by section, with no copy of the whole
    file in memory. Raises ValueError, before the file is opened, if a
    function node has no payload or no vector or is labelled other than its
    payload's qualified name, a payload's clone id or guf is not the one
    load_kb reads or derives (``_node_section``), a node kind or relation
    is not in ``RELATION_TYPING``'s vocabulary, a signature has an empty
    feature, a vector does not fit its section (``_vector_section``), or the
    metadata is one load_kb refuses (``_meta_fault``); TypeError, as early,
    for metadata that JSON cannot hold.
    """
    meta = graph.embedder_meta or {}
    if (fault := _meta_fault(meta)) is not None:
        raise ValueError(fault)
    ids = sorted(graph.nodes)
    nodes = [graph.nodes[nid] for nid in ids]
    node_section = _node_section(nodes, graph.edges)
    edge_section = _edge_section(ids, graph.edges)
    for what, names, vocabulary in (("node kind", node_section["kind"], _KINDS),
                                    ("relation", edge_section["relation"], _RELATIONS)):
        unknown = set(names).difference(vocabulary)
        if unknown:
            raise ValueError(f"unknown {what} {min(map(repr, unknown))}")
    vectors = _vector_section(
        [node.id for node in nodes if node.kind == "function"], graph.vectors)
    # the metadata, the one section of arbitrary JSON, is encoded before the
    # file is opened, so a value JSON cannot hold raises with no file written
    meta = _canonical_json(meta)
    with open(path, "wb") as handle:
        handle.write(_MAGIC + struct.pack("<H", _VERSION))
        # each other section is written as soon as it is encoded, and let go before the next
        for payload in chain(map(_canonical_json, (node_section, edge_section)), [meta, vectors]):
            handle.write(struct.pack("<I", len(payload)))
            handle.write(payload)


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


def _ascending(items: list) -> bool:
    """Whether ``items`` are strictly ascending, so also free of repeats."""
    return all(map(lt, items, islice(items, 1, None)))


def _signature(text: str) -> SignatureFeatures:
    """The signature that ``_signature_text`` wrote as ``text``, if its
    features are nonempty and strictly ascending (``""`` has none)."""
    features = text.split(" ") if text else []
    # "" sorts first, so of strictly ascending features only the first can be empty
    if features and not (features[0] and _ascending(features)):
        raise ValueError(f"signature {text!r} is not nonempty features in strictly "
                         f"ascending order")
    return SignatureFeatures(frozenset(features))


def _read_graph(section, edge_section) -> tuple[
        dict[str, EntityNode], list[tuple[str, str, str]], list[str], CloneGroupTable]:
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


def _read_edges(section, ids: list[str], kinds: list[str]) -> list[tuple[str, str, str]]:
    """The edge section's edges, if save_kb could have written it for nodes
    of ``ids`` and ``kinds``: each position an index of ``ids``, the
    rows in strictly ascending order, and each relation a known one between
    nodes of the kinds it joins."""
    if type(section) is not dict or section.keys() != _EDGE_COLUMNS.keys():
        raise ValueError(f"the edge section's columns are not {sorted(_EDGE_COLUMNS)}")
    subjects, relation_names, objects = _columns(section, _EDGE_COLUMNS)
    # checked explicitly: a negative position would index from the end
    for positions in (subjects, objects):
        if positions and not (0 <= min(positions) and max(positions) < len(ids)):
            raise ValueError(f"an edge position is outside 0..{len(ids) - 1}")
    rows = zip(subjects, relation_names, objects)
    later_rows = zip(*(islice(column, 1, None) for column in (subjects, relation_names, objects)))
    if not all(map(lt, rows, later_rows)):
        raise ValueError("edges are not in strictly ascending order")
    # each distinct (subject kind, relation, object kind) is checked once
    for subject_kind, relation, object_kind in set(zip(
            map(kinds.__getitem__, subjects), relation_names, map(kinds.__getitem__, objects))):
        kind, object_kinds = RELATION_TYPING[relation]  # KeyError: an unknown relation
        if subject_kind != kind or object_kind not in object_kinds:
            raise ValueError(f"a {relation} edge joins a {subject_kind} node "
                             f"to a {object_kind} node")
    return list(zip(map(ids.__getitem__, subjects), map(_RELATIONS.__getitem__, relation_names),
                    map(ids.__getitem__, objects)))


def _vector_fault(vector: EmbeddingVector, dimension: int) -> Optional[str]:
    """Why ``vector`` cannot be a row of a knowledge base of ``dimension``,
    or None: it needs one value per bucket, its buckets strictly ascending
    in ``range(dimension)`` and its values ``within_bound``."""
    buckets, values = vector
    if len(buckets) != len(values):
        return "vector has more buckets than values, or fewer"
    if buckets and not (0 <= buckets[0] and buckets[-1] < dimension and _ascending(buckets)):
        return f"vector buckets are not strictly ascending in range({dimension})"
    if not within_bound(values):
        return "vector values are not of norm <= 2**510"
    return None


def _array(typecode: str, data: memoryview) -> array:
    """The little-endian items of ``data`` as an array of ``typecode``."""
    items = array(typecode)
    items.frombytes(data)
    return _little_endian(items)


def _vectors(section: memoryview, function_ids: list[str],
             dimension: int) -> dict[str, EmbeddingVector]:
    """The fourth section's vectors by function id, if save_kb could have
    written it for ``function_ids``: one count for each of them, a length of
    exactly ``4 * len(function_ids) + 12 * sum(counts)``, and each vector's
    buckets strictly ascending below ``dimension`` and its values
    ``within_bound`` (see ``_vector_fault``).

    The counts, the buckets and the values are each read as one array, and
    each vector is a slice of the last two.
    """
    head = 4 * len(function_ids)
    if len(section) < head:
        raise ValueError(f"vector section of {len(section)} bytes is shorter than "
                         f"{len(function_ids)} counts")
    counts = _array(BUCKET_TYPE, section[:head])
    total = sum(counts)
    # checked before anything else is read, so a corrupt count allocates nothing
    if len(section) != head + 12 * total:
        raise ValueError(f"vector section of {len(section)} bytes, where its counts "
                         f"make {head + 12 * total}")
    buckets = _array(BUCKET_TYPE, section[head:head + 4 * total])
    values = _array("d", section[head + 4 * total:])
    vectors, start = {}, 0
    for function_id, count in zip(function_ids, counts):
        end = start + count
        # the slices already have the fields' types, so nothing is left to coerce
        vector = tuple.__new__(EmbeddingVector, (buckets[start:end], values[start:end]))
        start = end
        fault = _vector_fault(vector, dimension)
        if fault is not None:
            raise ValueError(f"node {function_id!r}: {fault}")
        vectors[function_id] = vector
    return vectors


def load_kb(path: str) -> tuple[PropertyGraph, CloneGroupTable]:
    """Read a format-5 knowledge base written by save_kb; never yields a partial graph.

    The graph and its clone groups equal the ones build_kb made. Every
    section must be as save_kb writes it for such a graph.
    FormatError("Corrupt") is raised, among other cases, for a JSON section
    that does not decode (so also for one nested too deeply or holding an
    integer of more digits than ``int`` converts); a node or edge section
    without exactly the columns save_kb writes (a format-2 ``"vector"`` or a
    format-4 ``"guf"`` among them); a column that is not a list, is not as
    long as the others of its kind (see ``_read_graph``), or holds an item
    of another type than save_kb writes there (a bool is no int); ids, edges
    or signature features out of strictly ascending order (so also a
    repeat); an empty signature feature; an unknown node kind or relation;
    an edge position outside the id column (a negative one too); an edge
    whose relation does not fit its endpoints' kinds; a ``clone_id`` on a
    function below ``CLONE_MIN_TOKENS`` tokens, or none on one at or above
    it; a vector section whose counts do not cover exactly the function
    nodes or whose length is not the one its counts make (checked before any
    bucket or value is read); vector buckets not strictly ascending below
    the metadata's dimension; a vector not ``within_bound``: not finite or
    of a norm above 2**510, the bound every provider's ``embed`` holds, so
    that ``knn`` cannot overflow; or metadata that save_kb would refuse (see
    ``_meta_fault``). A file of format 1, 2, 3 or 4 raises
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
    *texts, vector_section = payloads
    sections = []
    for index, text in enumerate(texts):
        try:
            sections.append(json.loads(str(text, "utf-8")))
        except (ValueError, RecursionError) as exc:  # ValueError: also bad UTF-8, huge ints
            raise FormatError("Corrupt", f"{path}: section {index} undecodable ({exc})") from None

    node_section, edge_section, meta = sections
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
    text, declaration tokens) pair, ``within_bound``: an ``EmbeddingVector``,
    which ``graph.vectors`` keeps as it is, or a (buckets, values) pair of
    sequences, which it keeps as one. ``repair.retrieve`` embeds its queries
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
        for decl in unit.declarations():
            fn = decl.fn
            if fn.id not in payloads:
                payloads[fn.id] = fn
                keys[fn.id] = clone_key(decl.normalized)
                new[fn.id] = (fn.source_text, unit.tokens[decl.start:decl.end])
        if new:
            reply = embedder.embed(list(new.values()))
            vectors.update(zip(new, _reply_vectors(reply, len(new), embedder.dimension, path)))
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
