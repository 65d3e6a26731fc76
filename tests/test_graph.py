import dataclasses
import hashlib
import importlib
import json
import math
import struct
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scpatcher import embedding, ingest
from scpatcher.embedding import (
    EmbeddingVector,
    HashingEmbedder,
    ProviderError,
    index_from_graph,
    knn,
)
from scpatcher.graph import _VERSION as KB_VERSION
from scpatcher.graph import (
    _vector_fault,
    _vectors,
    CloneGroupTable,
    EntityNode,
    FormatError,
    GraphError,
    PropertyGraph,
    assign_clone_groups,
    build_graph,
    build_kb,
    clone_key,
    compute_guf,
    load_kb,
    save_kb,
)
from scpatcher.ingest import (
    RELATION_TYPING,
    extract_triples_with_diagnostics,
    lex,
    load_source,
    normalize_source,
    parse_source,
)
from scpatcher.model import FunctionUnit, SignatureFeatures
from scpatcher.repair import retrieve

FIXTURES = Path(__file__).parent / "fixtures"
CORPUS = FIXTURES / "corpus"
ORACLES = FIXTURES / "oracles"


def _corpus_graph(corpus_paths):
    """The corpus's graph from build_graph, and its functions' clone keys
    from the parse, by function id."""
    triples, functions, keys = [], [], {}
    for path in corpus_paths:
        unit = load_source(path)
        triples.extend(extract_triples_with_diagnostics(unit)[0])
        for decl in unit.declarations():
            functions.append(decl.fn)
            keys[decl.fn.id] = clone_key(decl.normalized)
    return build_graph(triples, functions), keys


def _text_keys(graph):
    """Each function's clone key, from its source text lexed anew."""
    return {fn.id: clone_key(normalize_source(lex(fn.source_text))) for fn in graph.functions()}


def _stamped(graph, clones):
    """``graph`` with each function's clone id and guf from compute_guf."""
    for node, (clone_id, guf) in zip(graph.function_nodes(), compute_guf(graph, clones)):
        node.payload = dataclasses.replace(node.payload, clone_id=clone_id, guf=guf)
    return graph


def _counts_oracle():
    return json.loads((ORACLES / "corpus_counts.json").read_text())


# ---------------------------------------------------------------------------
# Graph construction
# ---------------------------------------------------------------------------

def test_corpus_graph_matches_hand_trace(corpus_paths):
    oracle = _counts_oracle()
    graph, _ = _corpus_graph(corpus_paths)
    assert len(graph.nodes) == oracle["nodes_total"]
    assert len(graph.edges) == oracle["edges_total"]
    by_kind = {}
    for node in graph.nodes.values():
        by_kind[node.kind] = by_kind.get(node.kind, 0) + 1
    assert by_kind == oracle["nodes_by_kind"]


def test_duplicate_triples_collapse():
    unit = parse_source("contract A { uint256 x;\nfunction f() public { x = 1; x = 2; } }")
    triples, _ = extract_triples_with_diagnostics(unit)
    functions = [d.fn for d in unit.declarations()]
    graph = build_graph(triples, functions)
    writes = [e for e in graph.edges if e[1] == "WRITES"]
    assert len(writes) == 1
    again = build_graph(triples + triples, functions)
    assert len(again.edges) == len(graph.edges)


def test_dangling_function_endpoint_rejected():
    unit = parse_source("contract A { uint256 x;\nfunction f() public { x = 1; } }")
    triples, _ = extract_triples_with_diagnostics(unit)
    with pytest.raises(GraphError) as err:
        build_graph(triples, [])
    assert err.value.code == "DanglingEndpoint"


# ---------------------------------------------------------------------------
# Clone groups
# ---------------------------------------------------------------------------

def test_planted_clone_pairs(corpus_paths):
    oracle = _counts_oracle()
    graph, keys = _corpus_graph(corpus_paths)
    clones = assign_clone_groups(graph.functions(), keys)
    assert len(clones.groups) == oracle["clone_groups_total"]
    multi = clones.multi_member_groups()
    pairs = sorted(
        sorted(graph.nodes[m].payload.qualified_name for m in members)
        for members in multi.values()
    )
    assert pairs == [sorted(p) for p in oracle["clone_pairs"]]


def test_below_threshold_functions_have_no_clone_id(corpus_paths):
    oracle = _counts_oracle()
    graph, keys = _corpus_graph(corpus_paths)
    _stamped(graph, assign_clone_groups(graph.functions(), keys))
    nones = sorted(n.payload.qualified_name for n in graph.function_nodes()
                   if n.payload.clone_id is None)
    assert nones == oracle["clone_id_none"]
    for name in nones:
        fn = next(f for f in graph.functions() if f.qualified_name == name)
        assert fn.token_count < 12


def test_clone_members_normalize_identically(corpus_paths):
    graph, keys = _corpus_graph(corpus_paths)
    clones = assign_clone_groups(graph.functions(), keys)
    for members in clones.groups.values():
        sequences = {tuple(normalize_source(lex(graph.nodes[m].payload.source_text)))
                     for m in members}
        assert len(sequences) == 1


def test_huge_threshold_empties_the_table(corpus_paths):
    graph, keys = _corpus_graph(corpus_paths)
    clones = assign_clone_groups(graph.functions(), keys, 10_000)
    assert clones.groups == {}
    # every function counts as a group of one
    callers = {fn.id: sum(1 for _s, rel, o in graph.edges if rel == "CALLS" and o == fn.id)
               for fn in graph.functions()}
    assert compute_guf(graph, clones) == [(None, 1 + callers[fn.id]) for fn in graph.functions()]


def test_clone_assignment_is_deterministic(corpus_paths):
    graph_a, keys_a = _corpus_graph(corpus_paths)
    graph_b, keys_b = _corpus_graph(corpus_paths)
    a = assign_clone_groups(graph_a.functions(), keys_a)
    b = assign_clone_groups(graph_b.functions(), keys_b)
    assert a.groups == b.groups


# ---------------------------------------------------------------------------
# Usage frequency
# ---------------------------------------------------------------------------

def test_guf_matches_independent_recount(corpus_paths):
    graph, keys = _corpus_graph(corpus_paths)
    graph = _stamped(graph, assign_clone_groups(graph.functions(), keys))

    # recount from raw parts: clone-group size by normalized-sequence
    # equality, call in-degree straight off the edge list
    sequences = {f.id: tuple(normalize_source(lex(f.source_text))) for f in graph.functions()}
    for node in graph.function_nodes():
        fn = node.payload
        if fn.token_count >= 12:
            size = sum(1 for s in sequences.values() if s == sequences[fn.id])
        else:
            size = 1
        in_calls = sum(1 for s, rel, o in graph.edges
                       if rel == "CALLS" and o == fn.id)
        assert fn.guf == size + in_calls, fn.qualified_name


def test_guf_spot_values(corpus_paths):
    oracle = _counts_oracle()["guf"]
    graph, keys = _corpus_graph(corpus_paths)
    graph = _stamped(graph, assign_clone_groups(graph.functions(), keys))
    gufs = {f.qualified_name: f.guf for f in graph.functions()}
    for name, expected in oracle.items():
        assert gufs[name] == expected, name
    assert all(v >= 1 for v in gufs.values())


def test_guf_grows_with_new_caller():
    base = ("contract A { uint256 x;\n"
            "function helper() public { x = 1; }\n"
            "function one() public { helper(); }\n")
    unit_one = parse_source(base + "}")
    unit_two = parse_source(base + "function two() public { helper(); }\n}")

    def guf_of_helper(unit):
        functions = [d.fn for d in unit.declarations()]
        keys = {d.fn.id: clone_key(d.normalized) for d in unit.declarations()}
        graph = build_graph(extract_triples_with_diagnostics(unit)[0], functions)
        graph = _stamped(graph, assign_clone_groups(graph.functions(), keys))
        return next(f.guf for f in graph.functions() if f.name == "helper")

    assert guf_of_helper(unit_two) == guf_of_helper(unit_one) + 1


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def test_kb_round_trip(kb, kb_file):
    graph, clones, _ = kb
    loaded_graph, loaded_clones = load_kb(kb_file)
    assert loaded_graph == graph
    assert loaded_clones.min_tokens == clones.min_tokens
    assert loaded_clones.groups == clones.groups
    assert loaded_graph.embedder_meta == graph.embedder_meta
    assert loaded_graph.vectors == graph.vectors


def test_kb_round_trip_at_the_extreme_clone_thresholds(kb, corpus_paths, tmp_path):
    """build_kb groups at CLONE_MIN_TOKENS only; load_kb takes a file's own
    threshold, so a file grouped at any other one still loads."""
    path = tmp_path / "kb.scpk"
    for min_tokens in (0, 10_000):
        graph, keys = _corpus_graph(corpus_paths)
        graph.vectors, graph.embedder_meta = kb[0].vectors, kb[0].embedder_meta
        clones = assign_clone_groups(graph.functions(), keys, min_tokens)
        _stamped(graph, clones)
        save_kb(graph, clones, path)
        loaded, loaded_clones = load_kb(path)
        assert loaded == graph
        assert (loaded_clones.min_tokens, loaded_clones.groups) == (min_tokens, clones.groups)


def test_double_save_is_byte_identical(kb, tmp_path):
    graph, clones, _ = kb
    a, b = tmp_path / "a.scpk", tmp_path / "b.scpk"
    save_kb(graph, clones, a)
    save_kb(graph, clones, b)
    assert a.read_bytes() == b.read_bytes()


def test_empty_kb_round_trip(tmp_path):
    path = tmp_path / "empty.scpk"
    save_kb(PropertyGraph({}, [], {}, None), CloneGroupTable(min_tokens=12, groups={}), path)
    graph, clones = load_kb(path)
    assert graph.nodes == {} and graph.edges == []
    assert clones.groups == {}


def test_kinds_and_relations_are_the_names_in_the_file(kb, kb_file, tmp_path):
    saved = {}
    _rewrite_kb(kb_file, tmp_path / "same.scpk",
                lambda nodes, edges, *rest: saved.update(nodes=nodes, edges=edges))
    ids, edges = saved["nodes"]["id"], saved["edges"]
    kinds = dict(zip(ids, saved["nodes"]["kind"]))
    rows = sorted(zip(map(ids.__getitem__, edges["subject"]), edges["relation"],
                      map(ids.__getitem__, edges["object"])))
    for graph in (kb[0], load_kb(kb_file)[0]):
        assert {nid: node.kind for nid, node in graph.nodes.items()} == kinds
        assert sorted(graph.edges) == rows


def test_loaded_kinds_and_relations_are_one_shared_str_per_name(kb_file):
    # a fresh str per node and edge held 0.9 MB more after loading the
    # bench's 1,000-file knowledge base
    graph = load_kb(kb_file)[0]
    names = [node.kind for node in graph.nodes.values()]
    names += [relation for _s, relation, _o in graph.edges]
    assert {type(name) for name in names} == {str}
    kinds = {id(node.kind) for node in graph.nodes.values()}
    relations = {id(relation) for _s, relation, _o in graph.edges}
    assert len(kinds) <= 5 and len(relations) <= 6
    # each is the vocabulary's own str
    assert kinds <= {id(kind) for subject_kind, object_kinds in RELATION_TYPING.values()
                     for kind in (subject_kind, *object_kinds)}
    assert relations <= set(map(id, RELATION_TYPING))


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "x.scpk"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(FormatError) as err:
        load_kb(path)
    assert err.value.code == "BadMagic"


def test_load_rejects_version_mismatch(kb_file, tmp_path):
    blob = bytearray(kb_file.read_bytes())
    blob[4:6] = (999).to_bytes(2, "little")
    path = tmp_path / "v.scpk"
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError) as err:
        load_kb(path)
    assert err.value.code == "VersionMismatch"


#: the node section's columns over every node, and those over the function
#: nodes only (format 3's payload fields)
_NODE_FIELDS = ("id", "kind", "label")
_PAYLOAD_FIELDS = ("contract_name", "name", "source_text", "signature", "token_count",
                   "clone_id", "guf")
_EDGE_FIELDS = ("subject", "relation", "object")


def _records(nodes):
    """The node columns as format 3's node records: one dict per node, and a
    function's with its payload dict."""
    payloads = (dict(zip(_PAYLOAD_FIELDS, entries))
                for entries in zip(*(nodes[name] for name in _PAYLOAD_FIELDS)))
    records = []
    for entries in zip(*(nodes[name] for name in _NODE_FIELDS)):
        record = dict(zip(_NODE_FIELDS, entries))
        if record["kind"] == "function":
            record["payload"] = next(payloads)
        records.append(record)
    return records


def _with_records(edit):
    """A mutation that edits the nodes as ``_records`` gives them and writes
    them back as columns: a node column over every record, and a function
    column over the records that have a payload, in their order."""
    def mutate(nodes, edges, clones, meta, vectors):
        records = _records(nodes)
        edit(records)
        payloads = [record["payload"] for record in records if "payload" in record]
        nodes.update({name: [record[name] for record in records] for name in _NODE_FIELDS})
        nodes.update({name: [payload[name] for payload in payloads]
                      for name in _PAYLOAD_FIELDS})
    return mutate


def _edge_rows(edges):
    return [list(row) for row in zip(*(edges[name] for name in _EDGE_FIELDS))]


def _set_edge_rows(edges, rows):
    edges.update(zip(_EDGE_FIELDS, (list(column) for column in zip(*rows))))


def _with_edge_rows(edit):
    """A mutation that edits the edges as [subject, relation, object] rows of
    positions and writes them back as columns."""
    def mutate(nodes, edges, clones, meta, vectors):
        rows = _edge_rows(edges)
        edit(rows, nodes)
        _set_edge_rows(edges, rows)
    return mutate


def _format_3_layout(nodes, edges):
    """The node and edge sections as format 3 wrote them: one record per
    node, a function's with its payload and the payload's signature as a
    list of features, and one [subject id, relation, object id] list per
    edge, in the same order."""
    records = _records(nodes)
    for record in records:
        if "payload" in record:
            record["payload"]["signature"] = record["payload"]["signature"].split()
    ids = nodes["id"]
    return records, [[ids[subject], relation, ids[obj]]
                     for subject, relation, obj in _edge_rows(edges)]


def _assert_older_format_is_rejected(kb_file, path, version, vector_of=None):
    """Write the fixture KB in format 3's record layout, and check that
    load_kb rejects it by its ``version``. With ``vector_of``, each function
    record holds ``vector_of(buckets, values)`` as its ``"vector"`` and there
    is no vector section, as in formats 1 and 2."""
    def older_layout(nodes, edges, clones, meta, vectors):
        records, edge_lists = _format_3_layout(nodes, edges)
        if vector_of is None:
            return [records, edge_lists, clones, meta, vectors]
        for record, (buckets, values) in zip(
                [record for record in records if "payload" in record], vectors):
            record["vector"] = vector_of(buckets, values)
        return [records, edge_lists, clones, meta]

    blob = bytearray(_rewrite_kb(kb_file, path, older_layout).read_bytes())
    blob[4:6] = version.to_bytes(2, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError) as err:
        load_kb(path)
    assert err.value.code == "VersionMismatch"


def test_format_1_file_raises_version_mismatch(kb_file, tmp_path):
    # format 1 held every vector densely; it is rebuilt from its corpus, not read
    _assert_older_format_is_rejected(
        kb_file, tmp_path / "v1.scpk", 1,
        lambda buckets, values: list(EmbeddingVector(buckets, values).dense(256)))


def test_format_2_file_raises_version_mismatch(kb_file, tmp_path):
    # format 2 held every vector as a sparse pair in its node record
    _assert_older_format_is_rejected(kb_file, tmp_path / "v2.scpk", 2,
                                     lambda buckets, values: [buckets, values])


def test_format_3_file_raises_version_mismatch(kb_file, tmp_path):
    # format 3 held one JSON record per node and one list per edge, and the
    # vectors in the binary section that format 4 keeps
    _assert_older_format_is_rejected(kb_file, tmp_path / "v3.scpk", 3)


def test_load_rejects_truncation_everywhere(kb_file, tmp_path):
    # no prefix of a valid file may load as a partial graph
    blob = kb_file.read_bytes()
    for cut in (3, 5, 10, len(blob) // 2, len(blob) - 1):
        path = tmp_path / f"cut{cut}.scpk"
        path.write_bytes(blob[:cut])
        with pytest.raises(FormatError):
            load_kb(path)


def test_load_rejects_trailing_garbage(kb_file, tmp_path):
    path = tmp_path / "t.scpk"
    path.write_bytes(kb_file.read_bytes() + b"tail")
    with pytest.raises(FormatError) as err:
        load_kb(path)
    assert err.value.code == "Corrupt"


def test_load_missing_file_is_io_error(tmp_path):
    with pytest.raises(OSError):
        load_kb(tmp_path / "absent.scpk")


def _vector_parts(vectors, bucket_code="I", value_code="d"):
    """The vector section of ``[buckets, values]`` pairs, as formats 3 and 4
    lay it out, in three parts: a little-endian u32 bucket count per vector,
    every bucket as a u32 and every value as an f64 (or each in the
    ``struct`` code given)."""
    buckets = [bucket for pair in vectors for bucket in pair[0]]
    values = [value for pair in vectors for value in pair[1]]
    return (struct.pack(f"<{len(vectors)}I", *(len(pair[0]) for pair in vectors)),
            struct.pack(f"<{len(buckets)}{bucket_code}", *buckets),
            struct.pack(f"<{len(values)}{value_code}", *values))


def _rewrite_kb(kb_file, path, mutate):
    """Decode the four JSON sections and the vector section, pass them to
    ``mutate`` and write the sections it returns (or, if it returns None, the
    ones it edited). The node and edge sections come as their column
    objects, the vectors as ``[buckets, values]`` lists in the order of the
    function nodes. A fifth section that is bytes is written as it is, as is
    any other section that is bytes; returning only four sections writes
    the layout of formats 1 and 2."""
    blob = kb_file.read_bytes()
    offset, payloads = 6, []
    for _ in range(5):
        (length,) = struct.unpack_from("<I", blob, offset)
        payloads.append(blob[offset + 4:offset + 4 + length])
        offset += 4 + length
    sections = [json.loads(payload) for payload in payloads[:4]]
    functions = sections[0]["kind"].count("function")
    counts = struct.unpack_from(f"<{functions}I", payloads[4])
    total = sum(counts)
    buckets = struct.unpack_from(f"<{total}I", payloads[4], 4 * functions)
    values = struct.unpack_from(f"<{total}d", payloads[4], 4 * functions + 4 * total)
    vectors, start = [], 0
    for count in counts:
        vectors.append([list(buckets[start:start + count]), list(values[start:start + count])])
        start += count
    sections = mutate(*sections, vectors) or sections + [vectors]
    out = bytearray(blob[:6])
    for index, section in enumerate(sections):
        if isinstance(section, bytes):
            payload = section
        elif index < 4:
            payload = json.dumps(section).encode("utf-8")
        else:
            payload = b"".join(_vector_parts(section))
        out += struct.pack("<I", len(payload)) + payload
    path.write_bytes(bytes(out))
    return path


def _function_record(records, index=0):
    return [record for record in records if "payload" in record][index]


def _node_record(records, kind):
    return next(record for record in records if record["kind"] == kind)


def _function_ids(nodes):
    return [nid for nid, kind in zip(nodes["id"], nodes["kind"]) if kind == "function"]


def _clone_ids_as_lists(nodes, edges, clones, meta, vectors):
    nodes["clone_id"] = [[clone_id] for clone_id in nodes["clone_id"]]


def _grouped_function(nodes, clones):
    """The function-column index of the first function with a clone id, and
    its group's members."""
    index = next(i for i, clone_id in enumerate(nodes["clone_id"]) if clone_id)
    return index, clones["groups"][nodes["clone_id"][index]]


def _vector_of(index=0, buckets=None, values=None):
    """A mutation that edits, in place, the buckets or the values of the
    ``index``-th function's vector."""
    def mutate(nodes, edges, clones, meta, vectors):
        pair = vectors[index]
        for edit, part in ((buckets, pair[0]), (values, pair[1])):
            if edit is not None:
                edit(part)
    return mutate


def _vector_bytes(edit):
    """A mutation that writes as the vector section what ``edit`` makes of
    its three parts: the counts, the buckets and the values."""
    return lambda nodes, edges, clones, meta, vectors: [
        nodes, edges, clones, meta, edit(*_vector_parts(vectors))]


#: struct code -> the type its items are converted to before packing
_CODE_TYPES = {"?": bool, "i": int, "I": int, "d": float}


def _repacked(bucket_code="I", value_code="d"):
    """A mutation that writes the vector section with the buckets or the
    values packed in another ``struct`` code, each item of its type."""
    def mutate(nodes, edges, clones, meta, vectors):
        converted = [[list(map(_CODE_TYPES[bucket_code], buckets)),
                      list(map(_CODE_TYPES[value_code], values))]
                     for buckets, values in vectors]
        section = b"".join(_vector_parts(converted, bucket_code, value_code))
        return [nodes, edges, clones, meta, section]
    return mutate


def _values_as_text(nodes, edges, clones, meta, vectors):
    """The values written as JSON text, as format 2 held them."""
    counts, buckets, _values = _vector_parts(vectors)
    text = json.dumps([value for _buckets, values in vectors for value in values])
    return [nodes, edges, clones, meta, counts + buckets + text.encode("utf-8")]


def _drop(container, *key):
    """Remove one item; unlike ``pop``, return None, so that ``_rewrite_kb``
    writes the edited sections."""
    container.pop(*key)


def _payload_of(**changes):
    """A mutation that sets the first function's entry in each named column."""
    def mutate(nodes, edges, clones, meta, vectors):
        for name, value in changes.items():
            nodes[name][0] = value
    return mutate


def _signature_of(edit):
    """A mutation that edits, in place, the first function's signature
    features, and writes them back joined by single spaces."""
    def mutate(nodes, edges, clones, meta, vectors):
        features = nodes["signature"][0].split(" ")
        edit(features)
        nodes["signature"][0] = " ".join(features)
    return mutate


def _with_edge(subject_kind, relation, object_kind):
    """A mutation that adds an edge, in sorted place, from the first node of
    ``subject_kind`` to the first of ``object_kind``; a CALLS edge also
    raises the callee's guf by one, as compute_guf would."""
    def mutate(nodes, edges, clones, meta, vectors):
        subject, obj = nodes["kind"].index(subject_kind), nodes["kind"].index(object_kind)
        _set_edge_rows(edges, sorted(_edge_rows(edges) + [[subject, relation, obj]]))
        if relation == "CALLS":
            nodes["guf"][_function_ids(nodes).index(nodes["id"][obj])] += 1
    return mutate


def _calls_edge_dropped(nodes, edges, clones, meta, vectors):
    index = edges["relation"].index("CALLS")
    for name in _EDGE_FIELDS:
        _drop(edges[name], index)


def _guf_raised(nodes, edges, clones, meta, vectors):
    nodes["guf"][0] += 1


_MALFORMED = {
    # the clone section's groups must be an object
    "groups-list": lambda nodes, edges, clones, meta, vectors: clones.update(
        groups=[["a", ["b"]]]),
    # every signature is a string of features (format 3 held a list of them,
    # and one could be an int)
    "feature-int": _payload_of(signature=7),
    "signature-list": _payload_of(signature=["nonpayable", "public"]),
    # the vector section is a count per function node, the buckets and the
    # values, so its length is exactly the one its counts make (the format-2
    # JSON pair could also be an empty list, a scalar, a list of three or of
    # one, or a list and a scalar: here they are nothing, one f64, a fourth
    # part, no values and one value for all), checked before a count of
    # 2**32 - 1 could allocate gigabytes
    "vector-empty": _vector_bytes(lambda counts, buckets, values: b""),
    "vector-scalar": _vector_bytes(lambda counts, buckets, values: struct.pack("<d", 0.5)),
    "vector-triple": _vector_bytes(
        lambda counts, buckets, values: counts + buckets + values + values),
    "vector-single": _vector_bytes(lambda counts, buckets, values: counts + buckets),
    "values-scalar": _vector_bytes(
        lambda counts, buckets, values: counts + buckets + struct.pack("<d", 0.5)),
    "section-one-byte-short": _vector_bytes(
        lambda counts, buckets, values: (counts + buckets + values)[:-1]),
    "section-one-byte-long": _vector_bytes(
        lambda counts, buckets, values: counts + buckets + values + b"\0"),
    "count-max-u32": _vector_bytes(lambda counts, buckets, values: struct.pack(
        "<I", 2 ** 32 - 1) + counts[4:] + buckets + values),
    "counts-one-fewer": _vector_bytes(
        lambda counts, buckets, values: counts[4:] + buckets + values),
    "counts-one-more": _vector_bytes(
        lambda counts, buckets, values: counts + struct.pack("<I", 0) + buckets + values),
    # as many values as buckets (in format 1: as many values as the dimension)
    "vector-short": _vector_of(values=_drop),
    "buckets-short": _vector_of(buckets=_drop),
    # every bucket below the dimension (in format 1: at most that many values);
    # -1 is stored as the u32 2**32 - 1
    "vector-long": _vector_of(5, buckets=lambda buckets: buckets.__setitem__(-1, 256)),
    "bucket-negative": _vector_of(buckets=lambda buckets: buckets.__setitem__(-1, 2 ** 32 - 1)),
    # every bucket a u32 and every value an f64 (format 2's JSON could hold a
    # bool or a float bucket and a string, a bool or an int value; written
    # here in another width, as decimal text for the string, each frames the
    # section wrongly)
    "bucket-bool": _repacked(bucket_code="?"),
    "bucket-float": _repacked(bucket_code="d"),
    "vector-string": _values_as_text,
    "value-bool": _repacked(value_code="?"),
    "value-int": _repacked(value_code="i"),
    # buckets strictly ascending
    "buckets-unsorted": _vector_of(buckets=lambda buckets: buckets.reverse()),
    "bucket-duplicate": _vector_of(buckets=lambda buckets: buckets.__setitem__(1, buckets[0])),
    # every value finite (any eight bytes are an f64, NaN and the infinities too)
    "vector-nan": _vector_of(values=lambda values: values.__setitem__(0, float("nan"))),
    "vector-inf": _vector_of(values=lambda values: values.__setitem__(0, float("inf"))),
    "vector-minus-inf": _vector_of(values=lambda values: values.__setitem__(0, float("-inf"))),
    # a norm of at most 2**510, so that knn's scores stay finite (this one
    # loaded, and then retrieve overflowed)
    "vector-huge-norm": _vector_of(values=lambda values: values.__setitem__(
        slice(None), [value * 1e200 for value in values])),
    # the metadata is an object that names a known embedder and, if it has
    # one, an int dimension in 1..2**32
    "meta-list": lambda nodes, edges, clones, meta, vectors: [nodes, edges, clones, [], vectors],
    "meta-null": lambda nodes, edges, clones, meta, vectors: [
        nodes, edges, clones, None, vectors],
    "embedder-unknown": lambda nodes, edges, clones, meta, vectors: meta.update(name="word2vec"),
    "embedder-null": lambda nodes, edges, clones, meta, vectors: meta.update(name=None),
    # corpus_hashes, if present, is an object of strings (an int loaded, and
    # evaluate's dedup then raised TypeError; a non-string value loaded too)
    "corpus-hashes-int": lambda nodes, edges, clones, meta, vectors: meta.update(
        corpus_hashes=5),
    "corpus-hashes-list": lambda nodes, edges, clones, meta, vectors: meta.update(
        corpus_hashes=[]),
    "corpus-hashes-int-value": lambda nodes, edges, clones, meta, vectors: meta.update(
        corpus_hashes={"h": 7}),
    "dimension-zero": lambda nodes, edges, clones, meta, vectors: meta.update(dimension=0),
    "dimension-float": lambda nodes, edges, clones, meta, vectors: meta.update(dimension=256.0),
    "dimension-bool": lambda nodes, edges, clones, meta, vectors: meta.update(dimension=True),
    "dimension-null": lambda nodes, edges, clones, meta, vectors: meta.update(dimension=None),
    # a bucket is a u32, so no knowledge base has more than 2**32 of them
    "dimension-above-max": lambda nodes, edges, clones, meta, vectors: meta.update(
        dimension=2 ** 32 + 1),
    # a smaller dimension leaves saved buckets out of range
    "dimension-small": lambda nodes, edges, clones, meta, vectors: meta.update(dimension=16),
    # a clone id is a string or null (a list loaded, then broke rerank's set)
    "clone-id-list": _clone_ids_as_lists,
    # each column item has the type save_kb writes (a bool is no int)
    "source-text-int": _payload_of(source_text=7),
    "name-list": _payload_of(name=["f"]),
    "contract-name-null": _payload_of(contract_name=None),
    "guf-float": _payload_of(guf=1.5),
    "guf-bool": _payload_of(guf=True),
    "token-count-bool": _payload_of(token_count=True),
    "min-tokens-float": lambda nodes, edges, clones, meta, vectors: clones.update(min_tokens=12.0),
    # a known node kind
    "kind-unknown": lambda nodes, edges, clones, meta, vectors: nodes["kind"].__setitem__(
        -1, "event"),
    # a function node has one vector and one entry in each function column,
    # and no other node has either: a function node without a payload makes
    # every function column one entry short, and a payload on a variable one
    # entry long (a vector for a variable is one vector more than function
    # nodes)
    "function-without-vector": lambda nodes, edges, clones, meta, vectors: _drop(vectors, 0),
    "function-without-payload": _with_records(
        lambda records: _drop(_function_record(records), "payload")),
    "vector-on-variable": lambda nodes, edges, clones, meta, vectors: vectors.append(
        [[0], [1.0]]),
    "payload-on-variable": _with_records(lambda records: _node_record(
        records, "variable").update(payload=_function_record(records)["payload"])),
    # every column of a section as long as the others of its kind: a reader
    # that zipped them would drop the last node, the last edge or the last
    # function's payload, or ignore an extra entry, and load
    "label-column-short": lambda nodes, edges, clones, meta, vectors: _drop(nodes["label"]),
    "relation-column-short": lambda nodes, edges, clones, meta, vectors: _drop(
        edges["relation"]),
    "guf-column-short": lambda nodes, edges, clones, meta, vectors: _drop(nodes["guf"]),
    "guf-column-long": lambda nodes, edges, clones, meta, vectors: nodes["guf"].append(1),
    # a section has exactly the columns or fields save_kb writes (an unknown
    # payload or clone field loaded, and re-saving dropped it; a format-2
    # vector, here as a column of the node section, would be ignored)
    "vector-in-record": lambda nodes, edges, clones, meta, vectors: nodes.update(
        vector=vectors),
    "payload-unknown-field": lambda nodes, edges, clones, meta, vectors: nodes.update(
        detected=[[] for _ in _function_ids(nodes)]),
    "clones-unknown-field": lambda nodes, edges, clones, meta, vectors: clones.update(
        stale=True),
    "node-twice": _with_records(lambda records: records.append(_function_record(records))),
    # ids, edges and signature features in strictly ascending order, as
    # save_kb writes them (out of it, they loaded and re-saved to other bytes)
    "nodes-unsorted": _with_records(lambda records: records.insert(0, records.pop(1))),
    "edges-unsorted": _with_edge_rows(lambda rows, nodes: rows.reverse()),
    "edge-twice": _with_edge_rows(lambda rows, nodes: rows.insert(0, list(rows[0]))),
    "signature-unsorted": _signature_of(lambda features: features.reverse()),
    "signature-repeated": _signature_of(lambda features: features.append(features[-1])),
    # no empty feature: " nonpayable public" still splits into ascending
    # features, and without this check it loaded and re-saved unchanged
    "signature-empty-first-feature": _signature_of(lambda features: features.insert(0, "")),
    # an edge joins known nodes by a known relation of the kinds extract_triples
    # emits (a CALLS edge from a variable, and the guf it adds, loaded); an
    # endpoint is a position, not an id as in format 3
    "edge-unknown-endpoint": _with_edge_rows(lambda rows, nodes: rows.append(
        [rows[-1][0], rows[-1][1], "~"])),
    "relation-unknown": _with_edge("function", "INVOKES", "function"),
    "calls-from-variable": _with_edge("variable", "CALLS", "function"),
    "reads-a-function": _with_edge("function", "READS", "function"),
    # guf is the clone-group size plus the CALLS in-degree (any other loaded as stored)
    "guf-raised": _guf_raised,
    "calls-edge-dropped": _calls_edge_dropped,
    # the clone groups are exactly the functions' clone ids
    "group-unknown-id": lambda nodes, edges, clones, meta, vectors: _grouped_function(
        nodes, clones)[1].append("f" * 16),
    "group-wrong-clone-id": lambda nodes, edges, clones, meta, vectors: nodes[
        "clone_id"].__setitem__(_grouped_function(nodes, clones)[0], "0" * 16),
    "group-missing-member": lambda nodes, edges, clones, meta, vectors: _drop(
        _grouped_function(nodes, clones)[1]),
    "group-extra": lambda nodes, edges, clones, meta, vectors: clones["groups"].update(
        {"0" * 16: [_function_ids(nodes)[0]]}),
    # a function has a clone id exactly if its token count reaches min_tokens
    # (999 left functions below it grouped, 0 left two at or above it
    # ungrouped; both loaded)
    "min-tokens-raised": lambda nodes, edges, clones, meta, vectors: clones.update(min_tokens=999),
    "min-tokens-zero": lambda nodes, edges, clones, meta, vectors: clones.update(min_tokens=0),
}


@pytest.mark.parametrize("mutate", _MALFORMED.values(), ids=_MALFORMED.keys())
def test_load_rejects_malformed_sections_as_corrupt(kb_file, tmp_path, mutate):
    path = _rewrite_kb(kb_file, tmp_path / "bad.scpk", mutate)
    with pytest.raises(FormatError) as err:
        load_kb(path)
    assert err.value.code == "Corrupt"


def _last_position_as(value_of):
    """A mutation that writes ``value_of(last)`` for the object position of
    an edge to the last node, ``last``, and sorts the edges again."""
    def edit(rows, nodes):
        last = len(nodes["id"]) - 1
        next(row for row in rows if row[2] == last)[2] = value_of(last)
        rows.sort()
    return _with_edge_rows(edit)


def _position_one_as(value):
    """A mutation that writes ``value``, which sorts as 1 does, for every edge
    position 1."""
    def edit(rows, nodes):
        for row in rows:
            for slot in (0, 2):
                if row[slot] == 1:
                    row[slot] = value
    return _with_edge_rows(edit)


@pytest.mark.parametrize("mutate", [
    _last_position_as(lambda last: -1), _last_position_as(lambda last: last + 1),
    _position_one_as(True), _position_one_as(1.0),
], ids=["minus-one", "len-ids", "true", "one-point-zero"])
def test_load_rejects_an_edge_position_that_is_not_an_index_of_the_ids(
        kb_file, tmp_path, mutate):
    # -1 and true would index the node that the saved position names, so a
    # reader that only indexed the id column with them would load the same
    # graph; len(ids) would index past its end
    path = _rewrite_kb(kb_file, tmp_path / "position.scpk", mutate)
    with pytest.raises(FormatError) as err:
        load_kb(path)
    assert err.value.code == "Corrupt"


@pytest.mark.parametrize("index, text", [
    (1, "[" * 100_000 + "]" * 100_000),
    (2, '{"groups": {}, "min_tokens": ' + "9" * 5_000 + "}"),
], ids=["nested-100000-deep", "int-of-5000-digits"])
def test_load_rejects_json_that_does_not_decode_as_corrupt(kb_file, tmp_path, index, text):
    # json.loads raises RecursionError for the first and ValueError, not
    # JSONDecodeError, for the second (Python's int conversion limit)
    def replace_section(*sections):
        sections = list(sections)
        sections[index] = text.encode("utf-8")
        return sections

    with pytest.raises(FormatError) as err:
        load_kb(_rewrite_kb(kb_file, tmp_path / "undecodable.scpk", replace_section))
    assert err.value.code == "Corrupt"


def test_save_rejects_a_bucket_beyond_u32_before_opening_the_file(kb_file, tmp_path):
    wide, clones = load_kb(kb_file)
    wide.embedder_meta["dimension"] = 2 ** 32
    first = sorted(wide.vectors)[0]
    path = tmp_path / "wide.scpk"
    for bucket in (2 ** 32, -1):
        wide.vectors[first] = EmbeddingVector((0, bucket), (0.6, 0.8))
        with pytest.raises(ValueError):
            save_kb(wide, clones, path)
        assert not path.exists()
    # the largest u32 is a bucket below the largest dimension, 2**32
    wide.vectors[first] = EmbeddingVector((0, 2 ** 32 - 1), (0.6, 0.8))
    save_kb(wide, clones, path)
    assert load_kb(path)[0] == wide


def test_save_rejects_what_the_function_columns_cannot_hold_before_opening_the_file(
        kb_file, tmp_path):
    # a function node without a payload has no entry in the function columns,
    # and an empty feature would vanish from its signature's text
    path = tmp_path / "unwritable.scpk"
    for edit in (lambda node: setattr(node, "payload", None),
                 lambda node: setattr(node, "payload", dataclasses.replace(
                     node.payload, signature=SignatureFeatures(frozenset({"", "public"}))))):
        graph, clones = load_kb(kb_file)
        edit(graph.function_nodes()[0])
        with pytest.raises(ValueError):
            save_kb(graph, clones, path)
        assert not path.exists()


@pytest.mark.parametrize("nodes, edges, message", [
    ({"c": EntityNode("c", "Contract", "C")}, [("c", "calls", "c")],
     "unknown node kind 'Contract'"),
    ({"c": EntityNode("c", "contract", "C")}, [("c", "calls", "c")],
     "unknown relation 'calls'"),
], ids=["kind", "relation"])
def test_save_rejects_a_name_outside_the_vocabulary_before_opening_the_file(
        tmp_path, nodes, edges, message):
    # load_kb would refuse such a file as Corrupt, so it is never written
    path = tmp_path / "misnamed.scpk"
    with pytest.raises(ValueError) as err:
        save_kb(PropertyGraph(nodes, edges, {}, None), CloneGroupTable(12, {}), path)
    assert str(err.value) == message
    assert not path.exists()


def test_save_of_metadata_json_cannot_hold_leaves_the_file_as_it_was(kb, kb_file, tmp_path):
    # the file is streamed section by section, but nothing is written before
    # the metadata is encoded
    graph, clones, _ = kb
    path = tmp_path / "kept.scpk"
    path.write_bytes(Path(kb_file).read_bytes())
    bad = PropertyGraph(graph.nodes, graph.edges, graph.vectors,
                        {**graph.embedder_meta, "note": {1, 2}})
    with pytest.raises(TypeError):
        save_kb(bad, clones, path)
    assert path.read_bytes() == Path(kb_file).read_bytes()


def test_load_rejects_vectors_of_differing_lengths_without_a_dimension(kb_file, tmp_path):
    # with no dimension in the metadata, buckets are bounded by the default, 256
    def drop_dimension(nodes, edges, clones, meta, vectors):
        del meta["dimension"]

    path = _rewrite_kb(kb_file, tmp_path / "nodim.scpk", drop_dimension)
    graph = load_kb(path)[0]
    assert max(bucket for buckets, _values in graph.vectors.values() for bucket in buckets) < 256
    assert index_from_graph(graph).dimension == 256

    def long_second_row(nodes, edges, clones, meta, vectors):
        drop_dimension(nodes, edges, clones, meta, vectors)
        buckets, values = vectors[1]
        buckets.append(256)
        values.append(0.5)

    path = _rewrite_kb(kb_file, tmp_path / "ragged.scpk", long_second_row)
    with pytest.raises(FormatError) as err:
        load_kb(path)
    assert err.value.code == "Corrupt"


def test_empty_metadata_loads_and_queries_with_the_default_embedder(
        kb, kb_file, corpus_paths, tmp_path):
    path = _rewrite_kb(kb_file, tmp_path / "nometa.scpk",
                       lambda nodes, edges, clones, meta, vectors: [
                           nodes, edges, clones, {}, vectors])
    graph, _clones = load_kb(path)
    assert graph.embedder_meta is None
    unit = load_source(corpus_paths[0])
    fn = unit.contracts[0].functions[0].fn
    assert retrieve(graph, unit, fn, k=3) == retrieve(kb[0], unit, fn, k=3)


def test_rewritten_but_unchanged_kb_still_loads(kb, kb_file, tmp_path):
    path = _rewrite_kb(kb_file, tmp_path / "same.scpk", lambda *sections: None)
    assert load_kb(path)[0] == kb[0]


def test_loaded_kb_retrieves_as_the_built_one(kb, kb_file, corpus_paths):
    built, loaded = kb[0], load_kb(kb_file)[0]
    queries = 0
    for path in corpus_paths:
        unit = load_source(path)
        for fn in (d.fn for d in unit.declarations()):
            for k in (1, 3, 5):
                assert retrieve(loaded, unit, fn, k) == retrieve(built, unit, fn, k)
            queries += 1
    assert queries == 28


def test_loaded_kb_index_equals_the_built_one(kb, kb_file):
    loaded_graph = load_kb(kb_file)[0]
    built, loaded = index_from_graph(kb[0]), index_from_graph(loaded_graph)
    assert len(built) == 28
    # each index keeps its KB's own vectors, and pads no row before a query
    for graph, index in ((kb[0], built), (loaded_graph, loaded)):
        assert all(vector is graph.vectors[fn.id]
                   for fn, vector in zip(index.functions, index.vectors))
        assert index.rows == {}
    assert loaded.vectors == built.vectors
    assert loaded.packed == built.packed
    assert loaded.sq_norms == built.sq_norms
    fields = ("dimension", "width", "scale", "row_bits", "query_limit", "max_sq_norm",
              "min_sq_norm", "offset")
    assert [getattr(loaded, name) for name in fields] == [getattr(built, name) for name in fields]
    assert [f.id for f in loaded.functions] == [f.id for f in built.functions]
    assert loaded == built
    assert ([loaded.rows[i] for i in range(28)] == [built.rows[i] for i in range(28)]
            == [vector.dense(256) for vector in built.vectors])


def test_a_vector_of_norm_2_to_the_510_loads_and_retrieves_as_the_dense_scan(
        kb_file, corpus_paths, tmp_path):
    def largest_vector(nodes, edges, clones, meta, vectors):
        vectors[0] = [[0, 1, 2, 3], [2.0 ** 509] * 4]

    graph = load_kb(_rewrite_kb(kb_file, tmp_path / "edge.scpk", largest_vector))[0]
    largest = [values for _buckets, values in graph.vectors.values()
               if math.hypot(*values) == 2.0 ** 510]
    assert len(largest) == 1
    index = index_from_graph(graph)
    dense = {fid: vector.dense(256) for fid, vector in graph.vectors.items()}
    provider = HashingEmbedder(256)
    queries = list(graph.vectors.values())
    for path in corpus_paths:
        unit = load_source(path)
        for fn in (d.fn for d in unit.declarations()):
            queries += provider.embed([(fn.source_text, unit.declaration_tokens(fn))])
            assert retrieve(graph, unit, fn, k=3).pool_size == 28
    for query in queries:
        for n in (1, 5, 27):
            scan = sorted((math.dist(query.dense(256), row), fid)
                          for fid, row in dense.items())[:n]
            assert [(c.s_sem, c.fn.id) for c in knn(index, query, n)] == scan


@st.composite
def _sparse_graphs(draw):
    """A graph of functions whose vectors are random sparse pairs, among
    them all-zero and full-dimension ones, linked by CALLS edges, with the
    clone groups and gufs build_kb gives them, and its clone table. Values
    reach 1e152, so that 256 of them keep a norm below 2**510 (about
    3.4e153), the most load_kb accepts."""
    dimension = draw(st.sampled_from([1, 2, 7, 64, 256]))
    value = st.floats(min_value=-1e152, max_value=1e152, allow_nan=False).filter(bool)
    buckets = st.one_of(st.just(frozenset()), st.just(frozenset(range(dimension))),
                        st.frozensets(st.integers(0, dimension - 1)))
    nodes, vectors = {}, {}
    for i in range(draw(st.integers(0, 6))):
        fn = FunctionUnit(id=f"{i:016x}", contract_name="C", name=f"f{i}",
                          source_text=f"function f{i}() public {{}}",
                          signature=SignatureFeatures(frozenset({"public"})),
                          token_count=draw(st.integers(1, 40)))
        nodes[fn.id] = EntityNode(fn.id, "function", fn.qualified_name, fn)
        chosen = tuple(sorted(draw(buckets)))
        values = tuple(draw(st.lists(value, min_size=len(chosen), max_size=len(chosen))))
        vectors[fn.id] = EmbeddingVector(chosen, values)
    edges = []
    if nodes:
        ids = st.sampled_from(sorted(nodes))
        pairs = draw(st.lists(st.tuples(ids, ids), max_size=4, unique=True))
        edges = [(subject_id, "CALLS", object_id) for subject_id, object_id in pairs]
    graph = PropertyGraph(nodes, edges, vectors, {"name": HashingEmbedder.name,
                                                  "dimension": dimension, "corpus_hashes": {}})
    clones = assign_clone_groups(graph.functions(), _text_keys(graph))
    return _stamped(graph, clones), clones


@settings(max_examples=60)
@given(_sparse_graphs())
def test_sparse_vectors_round_trip_byte_identically(tmp_path_factory, graph_and_clones):
    tmp_path = tmp_path_factory.mktemp("round")
    graph, clones = graph_and_clones
    first, second = tmp_path / "first.scpk", tmp_path / "second.scpk"
    save_kb(graph, clones, first)
    loaded, loaded_clones = load_kb(first)
    save_kb(loaded, loaded_clones, second)
    assert first.read_bytes() == second.read_bytes()
    assert loaded == graph
    assert loaded_clones == clones
    assert all(type(v) is float for _buckets, values in loaded.vectors.values() for v in values)


#: finite doubles of magnitude at most 2**509, so that four of them keep a
#: norm within 2**510: any bit pattern, any value in range, and the edge
#: cases of the f64 encoding (signed zeros, the smallest and largest
#: subnormals, the smallest normal, the bound, and values whose repr needs
#: 17 significant digits)
_DOUBLES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                     2.2250738585072014e-308, 2.0 ** 509, -2.0 ** 509, 0.1 + 0.2,
                     1 + 2 ** -52, -(2 + 2 ** -51), 123456789.12345679]),
    st.integers(0, 2 ** 64 - 1).map(lambda bits: struct.unpack("<d", bits.to_bytes(8, "little"))[0])
    .filter(lambda value: abs(value) <= 2.0 ** 509),
    st.floats(min_value=-2.0 ** 509, max_value=2.0 ** 509))


@settings(max_examples=60)
@given(st.lists(st.lists(_DOUBLES, max_size=4), min_size=1, max_size=28))
def test_finite_doubles_round_trip_bit_for_bit(kb_file, tmp_path_factory, rows):
    graph, clones = load_kb(kb_file)
    for function_id, values in zip(sorted(graph.vectors), rows):
        graph.vectors[function_id] = EmbeddingVector(tuple(range(len(values))), tuple(values))
    tmp_path = tmp_path_factory.mktemp("doubles")
    first, second = tmp_path / "first.scpk", tmp_path / "second.scpk"
    save_kb(graph, clones, first)
    loaded, loaded_clones = load_kb(first)
    save_kb(loaded, loaded_clones, second)
    assert first.read_bytes() == second.read_bytes()
    for function_id, (_buckets, values) in graph.vectors.items():
        expected = struct.pack(f"<{len(values)}d", *values)
        assert struct.pack(f"<{len(values)}d", *loaded.vectors[function_id].values) == expected


#: values for vector sections: finite ones of any size, NaN, both
#: infinities, and magnitudes around 2**509 and 2**510, so that one vector
#: or the sum of several has a norm just within MAX_NORM or just above it
_SECTION_VALUES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 2.0 ** 509, -(2.0 ** 509),
                     1.5 * 2.0 ** 509, 2.0 ** 510, math.nextafter(2.0 ** 510, math.inf),
                     2.0 ** 511]),
    st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def _vector_sections(draw):
    """(dimension, rows): each row a (buckets, values) pair of one length,
    its buckets u32 but often unsorted, repeated or at or past the dimension."""
    dimension = draw(st.one_of(st.integers(1, 12), st.just(2 ** 32)))
    top = min(dimension + 2, 2 ** 32 - 1)
    below = st.integers(0, min(dimension, 16) - 1)
    bucket_lists = st.one_of(
        st.frozensets(below, max_size=5).map(sorted),
        # strictly ascending, but up to the dimension itself
        st.frozensets(st.integers(0, min(dimension, 16)), max_size=5).map(sorted),
        st.lists(below, max_size=5),
        st.lists(st.one_of(st.integers(0, min(top, 16)), st.integers(0, 2 ** 32 - 1),
                           st.sampled_from([dimension - 1, top])), max_size=5))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        buckets = draw(bucket_lists)
        value = draw(st.sampled_from([st.floats(min_value=-4.0, max_value=4.0), _SECTION_VALUES]))
        values = draw(st.lists(value, min_size=len(buckets), max_size=len(buckets)))
        rows.append((buckets, values))
    return dimension, rows


@given(_vector_sections())
# each vector within the bound, all the values together above it
@example((8, [([0], [1.5 * 2.0 ** 509])] * 3))
def test_vector_section_loads_exactly_what_the_per_vector_checks_accept(section):
    dimension, rows = section
    ids = [f"{i:016x}" for i in range(len(rows))]
    buckets = [bucket for row_buckets, _values in rows for bucket in row_buckets]
    values = [value for _buckets, row_values in rows for value in row_values]
    blob = struct.pack(f"<{len(rows)}I{len(buckets)}I{len(values)}d",
                       *(len(row_buckets) for row_buckets, _values in rows), *buckets, *values)
    # the reference: every vector checked on its own, the first fault named
    reference = [EmbeddingVector(row_buckets, row_values) for row_buckets, row_values in rows]
    fault = next(((function_id, fault) for function_id, vector in zip(ids, reference)
                  if (fault := _vector_fault(vector, dimension)) is not None), None)
    if fault is None:
        assert _vectors(memoryview(blob), ids, dimension) == dict(zip(ids, reference))
    else:
        with pytest.raises(ValueError) as err:
            _vectors(memoryview(blob), ids, dimension)
        assert str(err.value) == f"node {fault[0]!r}: {fault[1]}"


#: one bit flipped, or one byte replaced, inserted or deleted, at a position
#: taken modulo the file size (a flip takes ``value % 8`` as its bit)
_MUTATION = st.tuples(st.sampled_from(["flip", "flip", "replace", "insert", "delete"]),
                      st.integers(0, 2 ** 20), st.integers(0, 255))


@settings(max_examples=100)
@given(_MUTATION)
def test_a_mutated_kb_file_is_rejected_or_round_trips_and_answers(
        kb_file, corpus_paths, tmp_path_factory, mutation):
    """Each byte-level mutation of the fixture KB file makes load_kb raise
    FormatError or OSError, or loads a graph that save_kb and load_kb give
    back unchanged and that retrieve answers."""
    kind, position, value = mutation
    blob = bytearray(kb_file.read_bytes())
    position %= len(blob)
    if kind == "flip":
        blob[position] ^= 1 << value % 8
    elif kind == "replace":
        blob[position] = value
    elif kind == "insert":
        blob.insert(position, value)
    else:
        del blob[position]
    path = tmp_path_factory.getbasetemp() / "mutated.scpk"
    path.write_bytes(bytes(blob))
    try:
        graph, clones = load_kb(path)
    except (FormatError, OSError):
        return
    again = tmp_path_factory.getbasetemp() / "resaved.scpk"
    save_kb(graph, clones, again)
    assert load_kb(again) == (graph, clones)
    unit = load_source(corpus_paths[0])
    retrieve(graph, unit, unit.contracts[0].functions[0].fn, k=3)


# ---------------------------------------------------------------------------
# KB build
# ---------------------------------------------------------------------------

def test_build_kb_report_counts(kb):
    graph, clones, report = kb
    oracle = _counts_oracle()
    assert report.files_seen == 10
    assert report.files_used == 10
    assert report.files_failed == []
    assert report.function_count == oracle["nodes_by_kind"]["function"]
    assert report.edge_count == oracle["edges_total"]
    assert report.clone_groups == len(clones.multi_member_groups())
    assert len(graph.embedder_meta["corpus_hashes"]) == 10


def test_build_kb_embeds_every_function(kb):
    graph, _, _ = kb
    for node in graph.function_nodes():
        buckets, values = graph.vectors[node.id]
        assert list(buckets) == sorted(set(buckets)) and 0 <= buckets[0] <= buckets[-1] < 256
        assert len(values) == len(buckets) and all(values)
        norm = sum(v * v for v in values) ** 0.5
        assert abs(norm - 1.0) < 1e-9


def test_build_kb_skips_duplicate_files(corpus_paths, tmp_path):
    copy = tmp_path / "token_copy.sol"
    original = (CORPUS / "token.sol").read_text()
    copy.write_text("// mirrored\n" + original)
    graph, _, report = build_kb(list(corpus_paths) + [copy],
                                HashingEmbedder(256))
    assert report.files_seen == 11
    assert report.files_used == 10
    assert [Path(p).name for p in report.duplicates_skipped] == ["token_copy.sol"]
    assert len(graph.function_nodes()) == 28


def test_build_kb_records_failures_and_continues(corpus_paths, tmp_path):
    broken = tmp_path / "broken.sol"
    broken.write_text("contract Broken { function f() public {")
    _, _, report = build_kb(list(corpus_paths) + [broken],
                            HashingEmbedder(256))
    assert report.files_used == 10
    assert [Path(p).name for p in report.files_failed] == ["broken.sol"]


class _FaultyProvider(HashingEmbedder):
    """The hashing provider, with ``fault`` applied to each ``embed`` reply."""

    def __init__(self, fault):
        super().__init__(256)
        self.fault = fault

    def embed(self, functions):
        return self.fault(super().embed(functions))


@pytest.mark.parametrize("fault, message", [
    (lambda reply: reply[:-1], "2 vectors for 3 functions"),
    (lambda reply: [EmbeddingVector(v.buckets, (math.inf,) + tuple(v.values[1:])) for v in reply],
     "vector values are not of norm <= 2**510"),
    (lambda reply: [EmbeddingVector(v.buckets[::-1], v.values[::-1]) for v in reply],
     "vector buckets are not strictly ascending in range(256)"),
    (lambda reply: [EmbeddingVector(tuple(v.buckets[:-1]) + (256,), v.values) for v in reply],
     "vector buckets are not strictly ascending in range(256)"),
    (lambda reply: [EmbeddingVector(v.buckets, v.values[:-1]) for v in reply],
     "vector has more buckets than values, or fewer"),
    (lambda reply: [(v.buckets,) for v in reply],
     "vector is not a pair of int buckets and values a float can hold"),
    (lambda reply: [(list(map(float, v.buckets)), v.values) for v in reply],
     "vector is not a pair of int buckets and values a float can hold"),
    # an int that a JSON reply can decode to, too large for a float
    (lambda reply: [(v.buckets, [10 ** 400] * len(v.values)) for v in reply],
     "vector is not a pair of int buckets and values a float can hold"),
], ids=["one-short", "inf", "reversed-buckets", "bucket-past-dimension", "value-short",
        "not-a-pair", "float-buckets", "int-past-float"])
def test_build_kb_rejects_a_provider_reply_it_cannot_store(corpus_paths, fault, message):
    with pytest.raises(ProviderError) as err:
        build_kb(corpus_paths, _FaultyProvider(fault))
    assert err.value.code == "MalformedReply"
    assert str(err.value) == f"{corpus_paths[0]}: provider reply rejected: {message}"


# ---------------------------------------------------------------------------
# One lex per file
# ---------------------------------------------------------------------------

#: SHA-256 of the KB saved from the fixture corpus with HashingEmbedder(),
#: and the format version it was saved in.
FIXTURE_KB_SHA256 = "d03aca52f0af1bbb42ba93b3cc5e2ea98cd0bf1df3617716e038fc02bb011516"
FIXTURE_KB_VERSION = 4


def test_fixture_kb_bytes_are_pinned(corpus_paths, tmp_path):
    graph, clones, _ = build_kb(corpus_paths, HashingEmbedder())
    path = tmp_path / "kb.scpk"
    save_kb(graph, clones, path)
    blob = path.read_bytes()
    version = int.from_bytes(blob[4:6], "little")
    assert version == KB_VERSION
    assert version == FIXTURE_KB_VERSION, (
        f"the KB format is now {version}: pin FIXTURE_KB_SHA256 and FIXTURE_KB_VERSION "
        f"anew for it, and say why in CHANGES.md")
    assert hashlib.sha256(blob).hexdigest() == FIXTURE_KB_SHA256


#: Size and SHA-256 of the KB saved from the benchmark's large corpus: seed 7,
#: 100 copies of the fixture corpus (1,000 files), with HashingEmbedder(256).
LARGE_KB_BYTES = 2_077_894
LARGE_KB_SHA256 = "ca2eeabce3be774e7d2f053ae08140e1715c62cd21a62ac2e95ed82b32e1e839"


def test_seed_7_large_kb_bytes_are_pinned(tmp_path, monkeypatch):
    root = Path(__file__).resolve().parent.parent
    monkeypatch.chdir(root)  # the generator reads the fixtures by relative path
    monkeypatch.syspath_prepend(str(root / "bench"))
    generate = importlib.import_module("generate")
    inputs = generate.generate(tmp_path / "inputs", 7, corpus_copies=100, case_copies=0)
    graph, clones, _ = build_kb([str(path) for path in inputs.corpus_paths],
                                HashingEmbedder(256))
    path = tmp_path / "large.scpk"
    save_kb(graph, clones, path)
    blob = path.read_bytes()
    version = int.from_bytes(blob[4:6], "little")
    assert version == FIXTURE_KB_VERSION, (
        f"the KB format is now {version}: pin LARGE_KB_BYTES, LARGE_KB_SHA256 and "
        f"FIXTURE_KB_VERSION anew for it, and say why in CHANGES.md")
    assert (len(blob), hashlib.sha256(blob).hexdigest()) == (LARGE_KB_BYTES, LARGE_KB_SHA256)


def test_build_kb_lexes_each_file_once(corpus_paths, monkeypatch):
    calls = []
    for module in (ingest, embedding):
        original = module.lex
        monkeypatch.setattr(module, "lex", lambda *args, _lex=original, **kwargs:
                            calls.append(args[0]) or _lex(*args, **kwargs))
    _, _, report = build_kb(corpus_paths, HashingEmbedder(256))
    # one parse per file; functions are embedded from the parse's tokens
    assert (report.files_used, report.function_count) == (10, 28)
    assert len(calls) == 10


def test_function_nodes_are_the_function_kind_nodes_in_insertion_order(kb, kb_file):
    for graph in (kb[0], load_kb(kb_file)[0]):
        assert graph.function_nodes() == [
            n for n in graph.nodes.values() if n.kind == "function"]
        assert len(graph.function_nodes()) == 28
        graph.function_nodes().clear()  # a copy: the graph keeps its list
        assert len(graph.function_nodes()) == 28


def test_build_kb_clone_groups_match_standalone_grouping(kb, corpus_paths):
    """The parse's clone keys group the functions as their source texts,
    lexed anew, do."""
    _, clones, _ = kb
    graph, _ = _corpus_graph(corpus_paths)
    standalone = assign_clone_groups(graph.functions(), _text_keys(graph))
    assert standalone.groups == clones.groups
    assert {f.id: f.clone_id for f in _stamped(graph, standalone).functions()} == \
        {f.id: f.clone_id for f in kb[0].functions()}


def test_build_kb_makes_one_payload_per_function_node_after_the_parse(corpus_paths,
                                                                    monkeypatch):
    made = []
    post_init = FunctionUnit.__post_init__
    monkeypatch.setattr(FunctionUnit, "__post_init__",
                        lambda self: made.append(self) or post_init(self))
    for path in corpus_paths:
        load_source(path)
    parsed = len(made)  # build_kb's own parse makes as many
    graph, _, _ = build_kb(corpus_paths, HashingEmbedder(16))
    assert 0 < len(made) - 2 * parsed <= len(graph.function_nodes()) == 28


class _TextLengthProvider(HashingEmbedder):
    """The hashing provider's name, with one vector per source-text length,
    so that two layouts of one function embed apart."""

    def embed(self, functions):
        return [EmbeddingVector((len(text) % self.dimension,), (1.0,))
                for text, _tokens in functions]


def test_build_kb_keeps_the_first_payload_and_vector_of_a_function_id(tmp_path):
    # A.f has the same id in both files (same contract, name and normalized
    # tokens), but its layout and literal differ, and so does g's presence,
    # so the file hashes differ and both files are used
    first, second = tmp_path / "a.sol", tmp_path / "b.sol"
    first.write_text("contract A { uint256 x;\nfunction f() public { x = 1; } }")
    second.write_text("contract A { uint256 x;\nfunction f() public {\n    x = 2;\n}\n"
                      "function g() public { x = 3; } }")
    provider = _TextLengthProvider(256)
    graph, clones, report = build_kb([first, second], provider)
    assert (report.files_used, report.function_count) == (2, 2)
    [fn_a, fn_b] = [load_source(path).contracts[0].functions[0].fn for path in (first, second)]
    assert fn_a.id == fn_b.id and fn_a.source_text != fn_b.source_text
    [vector_a, vector_b] = provider.embed([(fn_a.source_text, []), (fn_b.source_text, [])])
    assert vector_a != vector_b
    kept = graph.nodes[fn_a.id].payload
    assert dataclasses.replace(kept, clone_id=None, guf=0) == fn_a
    assert graph.vectors[fn_a.id] == vector_a
    path = tmp_path / "kb.scpk"
    save_kb(graph, clones, path)
    assert load_kb(path) == (graph, clones)


def test_free_function_gets_a_node_a_guf_and_its_callers_edges(tmp_path):
    path = tmp_path / "free.sol"
    path.write_text("function g() pure returns (uint) { return 1; }\n"
                    "contract A { function f() public { g(); } }")
    graph, clones, report = build_kb([path], HashingEmbedder(16))
    assert report.diagnostics == []
    by_label = {node.label: node for node in graph.nodes.values()}
    g, f = by_label["g"], by_label["A.f"]
    assert (g.kind, g.payload.contract_name, g.payload.name) == ("function", "", "g")
    assert (f.id, "CALLS", g.id) in graph.edges
    assert [edge for edge in graph.edges if edge[2] == g.id] == [(f.id, "CALLS", g.id)]
    # its clone group (or itself alone) and one caller
    assert g.payload.guf == (len(clones.groups[g.payload.clone_id])
                             if g.payload.clone_id else 1) + 1
    assert g.id in graph.vectors
    kb = tmp_path / "kb.scpk"
    save_kb(graph, clones, kb)
    assert load_kb(kb) == (graph, clones)


def test_build_kb_lists_parse_diagnostics_before_triple_diagnostics(tmp_path):
    paths = []
    for name in ("a", "b"):
        path = tmp_path / f"{name}.sol"
        path.write_text(f"contract {name.upper()} {{ @ ;\n"
                        f"function f() public {{ missing_{name}(); }} }}")
        paths.append(path)
    _, _, report = build_kb(paths, HashingEmbedder(16))
    assert [line.split(": ", 1)[-1] if line.startswith(str(tmp_path)) else line
            for line in report.diagnostics] == [
        "line 1: skipped unexpected character '@'",
        "line 1: skipped unexpected character '@'",
        "A.f: unresolved call target 'missing_a'",
        "B.f: unresolved call target 'missing_b'",
    ]
