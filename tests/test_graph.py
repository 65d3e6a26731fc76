import hashlib
import json
import math
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scpatcher import embedding, ingest
from scpatcher.embedding import EmbeddingVector, HashingEmbedder, index_from_graph, knn
from scpatcher.graph import (
    CloneGroupTable,
    EntityNode,
    FormatError,
    GraphError,
    PropertyGraph,
    assign_clone_groups,
    build_graph,
    build_kb,
    compute_guf,
    load_kb,
    save_kb,
)
from scpatcher.ingest import (
    NodeKind,
    Relation,
    extract_triples_with_diagnostics,
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
    triples, functions = [], []
    for path in corpus_paths:
        unit = load_source(path)
        triples.extend(extract_triples_with_diagnostics(unit)[0])
        functions.extend(f for c in unit.contracts for f in c.functions)
    return build_graph(triples, functions), functions


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
        by_kind[node.kind.value] = by_kind.get(node.kind.value, 0) + 1
    assert by_kind == oracle["nodes_by_kind"]


def test_duplicate_triples_collapse():
    unit = parse_source("contract A { uint256 x;\nfunction f() public { x = 1; x = 2; } }")
    triples, _ = extract_triples_with_diagnostics(unit)
    functions = [f for c in unit.contracts for f in c.functions]
    graph = build_graph(triples, functions)
    writes = [e for e in graph.edges if e[1].value == "WRITES"]
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
    graph, _ = _corpus_graph(corpus_paths)
    clones = assign_clone_groups(graph, 12)
    assert len(clones.groups) == oracle["clone_groups_total"]
    multi = clones.multi_member_groups()
    pairs = sorted(
        sorted(graph.node(m).payload.qualified_name for m in members)
        for members in multi.values()
    )
    assert pairs == [sorted(p) for p in oracle["clone_pairs"]]


def test_below_threshold_functions_have_no_clone_id(corpus_paths):
    oracle = _counts_oracle()
    graph, _ = _corpus_graph(corpus_paths)
    clones = assign_clone_groups(graph, 12)
    nones = sorted(n.payload.qualified_name for n in graph.function_nodes()
                   if n.payload.clone_id is None)
    assert nones == oracle["clone_id_none"]
    for name in nones:
        fn = next(f for f in graph.functions() if f.qualified_name == name)
        assert fn.token_count < 12


def test_clone_members_normalize_identically(corpus_paths):
    graph, _ = _corpus_graph(corpus_paths)
    clones = assign_clone_groups(graph, 12)
    for members in clones.groups.values():
        sequences = {tuple(normalize_source(graph.node(m).payload.source_text))
                     for m in members}
        assert len(sequences) == 1


def test_huge_threshold_empties_the_table(corpus_paths):
    graph, _ = _corpus_graph(corpus_paths)
    clones = assign_clone_groups(graph, 10_000)
    assert clones.groups == {}
    assert all(n.payload.clone_id is None for n in graph.function_nodes())
    assert clones.size_of(None) == 1


def test_clone_assignment_is_deterministic(corpus_paths):
    graph_a, _ = _corpus_graph(corpus_paths)
    graph_b, _ = _corpus_graph(corpus_paths)
    a = assign_clone_groups(graph_a, 12)
    b = assign_clone_groups(graph_b, 12)
    assert a.groups == b.groups


# ---------------------------------------------------------------------------
# Usage frequency
# ---------------------------------------------------------------------------

def test_guf_matches_independent_recount(corpus_paths):
    graph, functions = _corpus_graph(corpus_paths)
    clones = assign_clone_groups(graph, 12)
    graph = compute_guf(graph, clones)

    # recount from raw parts: clone-group size by normalized-sequence
    # equality, call in-degree straight off the edge list
    sequences = {f.id: tuple(normalize_source(f.source_text)) for f in functions}
    for node in graph.function_nodes():
        fn = node.payload
        if fn.token_count >= 12:
            size = sum(1 for s in sequences.values() if s == sequences[fn.id])
        else:
            size = 1
        in_calls = sum(1 for s, rel, o in graph.edges
                       if rel.value == "CALLS" and o == fn.id)
        assert fn.guf == size + in_calls, fn.qualified_name


def test_guf_spot_values(corpus_paths):
    oracle = _counts_oracle()["guf"]
    graph, _ = _corpus_graph(corpus_paths)
    graph = compute_guf(graph, assign_clone_groups(graph, 12))
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
        functions = [f for c in unit.contracts for f in c.functions]
        graph = build_graph(extract_triples_with_diagnostics(unit)[0], functions)
        graph = compute_guf(graph, assign_clone_groups(graph, 12))
        return next(f.guf for f in graph.functions() if f.name == "helper")

    assert guf_of_helper(unit_two) == guf_of_helper(unit_one) + 1


def test_node_lookup_of_unknown_id_raises():
    with pytest.raises(GraphError) as err:
        PropertyGraph().node("missing")
    assert err.value.code == "UnknownNode"


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


def test_kb_round_trip_at_the_extreme_clone_thresholds(corpus_paths, tmp_path):
    path = tmp_path / "kb.scpk"
    for min_tokens in (0, 10_000):
        graph, clones, _ = build_kb(corpus_paths, HashingEmbedder(64), min_tokens)
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
    save_kb(PropertyGraph(), CloneGroupTable(min_tokens=12, groups={}), path)
    graph, clones = load_kb(path)
    assert graph.nodes == {} and graph.edges == []
    assert clones.groups == {}


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


def test_format_1_file_raises_version_mismatch(kb_file, tmp_path):
    # format 1 held every vector densely; it is rebuilt from its corpus, not read
    def dense_vectors(nodes, edges, clones, meta):
        for record in nodes:
            if "vector" in record:
                record["vector"] = list(EmbeddingVector(*record["vector"]).dense(256))

    path = _rewrite_kb(kb_file, tmp_path / "v1.scpk", dense_vectors)
    blob = bytearray(path.read_bytes())
    blob[4:6] = (1).to_bytes(2, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError) as err:
        load_kb(path)
    assert err.value.code == "VersionMismatch"


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


def _rewrite_kb(kb_file, path, mutate):
    """Decode the four JSON sections, pass them to ``mutate`` and write the
    sections it returns (or, if it returns None, the ones it edited)."""
    blob = kb_file.read_bytes()
    offset, sections = 6, []
    for _ in range(4):
        (length,) = struct.unpack_from("<I", blob, offset)
        sections.append(json.loads(blob[offset + 4:offset + 4 + length]))
        offset += 4 + length
    sections = mutate(*sections) or sections
    out = bytearray(blob[:6])
    for section in sections:
        payload = json.dumps(section).encode("utf-8")
        out += struct.pack("<I", len(payload)) + payload
    path.write_bytes(bytes(out))
    return path


def _function_record(nodes, index=0):
    return [record for record in nodes if "payload" in record][index]


def _node_record(nodes, kind):
    return next(record for record in nodes if record["kind"] == kind)


def _clone_ids_as_lists(nodes, edges, clones, meta):
    for record in nodes:
        if "payload" in record:
            record["payload"]["clone_id"] = [record["payload"]["clone_id"]]


def _grouped_record(nodes, clones):
    """The first function record with a clone id, and its group's members."""
    record = next(r for r in nodes if "payload" in r and r["payload"]["clone_id"])
    return record, clones["groups"][record["payload"]["clone_id"]]


def _vector_of(index=0, buckets=None, values=None):
    """A mutation that edits, in place, the buckets or the values of the
    ``index``-th function's vector."""
    def mutate(nodes, edges, clones, meta):
        pair = _function_record(nodes, index)["vector"]
        for edit, part in ((buckets, pair[0]), (values, pair[1])):
            if edit is not None:
                edit(part)
    return mutate


def _drop(container, *key):
    """Remove one item; unlike ``pop``, return None, so that ``_rewrite_kb``
    writes the edited sections."""
    container.pop(*key)


def _payload_of(**changes):
    return lambda nodes, edges, clones, meta: _function_record(nodes)["payload"].update(changes)


def _signature_of(edit):
    """A mutation that edits, in place, the first function's signature features."""
    return lambda nodes, edges, clones, meta: edit(_function_record(nodes)["payload"]["signature"])


def _with_edge(subject_kind, relation, object_kind):
    """A mutation that adds an edge, in sorted place, from the first node of
    ``subject_kind`` to the first of ``object_kind``; a CALLS edge also
    raises the callee's guf by one, as compute_guf would."""
    def mutate(nodes, edges, clones, meta):
        subject, obj = _node_record(nodes, subject_kind), _node_record(nodes, object_kind)
        edges.append([subject["id"], relation, obj["id"]])
        edges.sort()
        if relation == "CALLS":
            obj["payload"]["guf"] += 1
    return mutate


def _calls_edge_dropped(nodes, edges, clones, meta):
    edges.remove(next(edge for edge in edges if edge[1] == "CALLS"))


def _guf_raised(nodes, edges, clones, meta):
    _function_record(nodes)["payload"]["guf"] += 1


_MALFORMED = {
    # the clone section's groups must be an object
    "groups-list": lambda nodes, edges, clones, meta: clones.update(groups=[["a", ["b"]]]),
    # every signature feature must be a string
    "feature-int": _payload_of(signature=["public", 7]),
    # a vector is a [buckets, values] pair: not an empty list, a scalar, a
    # list of three or of one, or a list and a scalar
    "vector-empty": lambda nodes, edges, clones, meta: _function_record(nodes).update(vector=[]),
    "vector-scalar": lambda nodes, edges, clones, meta: _function_record(nodes).update(
        vector=0.5),
    "vector-triple": lambda nodes, edges, clones, meta: _function_record(nodes)["vector"].append(
        []),
    "vector-single": lambda nodes, edges, clones, meta: _drop(_function_record(nodes)["vector"]),
    "values-scalar": lambda nodes, edges, clones, meta: _function_record(nodes)["vector"]
    .__setitem__(1, 0.5),
    # as many values as buckets (in format 1: as many values as the dimension)
    "vector-short": _vector_of(values=_drop),
    "buckets-short": _vector_of(buckets=_drop),
    # every bucket an int in range(dimension) (in format 1: at most that many values)
    "vector-long": _vector_of(5, buckets=lambda buckets: buckets.__setitem__(-1, 256)),
    "bucket-negative": _vector_of(buckets=lambda buckets: buckets.__setitem__(0, -1)),
    "bucket-bool": _vector_of(buckets=lambda buckets: buckets.__setitem__(0, False)),
    "bucket-float": _vector_of(buckets=lambda buckets: buckets.__setitem__(0, float(buckets[0]))),
    # buckets strictly ascending
    "buckets-unsorted": _vector_of(buckets=lambda buckets: buckets.reverse()),
    "bucket-duplicate": _vector_of(buckets=lambda buckets: buckets.__setitem__(1, buckets[0])),
    # every value a finite float (json.loads accepts NaN and the infinities)
    "vector-nan": _vector_of(values=lambda values: values.__setitem__(0, float("nan"))),
    "vector-inf": _vector_of(values=lambda values: values.__setitem__(0, float("inf"))),
    "vector-minus-inf": _vector_of(values=lambda values: values.__setitem__(0, float("-inf"))),
    # a norm of at most 2**510, so that knn's scores stay finite (this one
    # loaded, and then retrieve overflowed)
    "vector-huge-norm": _vector_of(values=lambda values: values.__setitem__(
        slice(None), [value * 1e200 for value in values])),
    "vector-string": _vector_of(values=lambda values: values.__setitem__(0, "0.5")),
    "value-bool": _vector_of(values=lambda values: values.__setitem__(0, True)),
    "value-int": _vector_of(values=lambda values: values.__setitem__(0, 1)),
    # the metadata is an object that names a known embedder and, if it has
    # one, a positive int dimension
    "meta-list": lambda nodes, edges, clones, meta: [nodes, edges, clones, []],
    "meta-null": lambda nodes, edges, clones, meta: [nodes, edges, clones, None],
    "embedder-unknown": lambda nodes, edges, clones, meta: meta.update(name="word2vec"),
    "embedder-null": lambda nodes, edges, clones, meta: meta.update(name=None),
    "dimension-zero": lambda nodes, edges, clones, meta: meta.update(dimension=0),
    "dimension-float": lambda nodes, edges, clones, meta: meta.update(dimension=256.0),
    "dimension-bool": lambda nodes, edges, clones, meta: meta.update(dimension=True),
    "dimension-null": lambda nodes, edges, clones, meta: meta.update(dimension=None),
    # a smaller dimension leaves saved buckets out of range
    "dimension-small": lambda nodes, edges, clones, meta: meta.update(dimension=16),
    # a clone id is a string or null (a list loaded, then broke rerank's set)
    "clone-id-list": _clone_ids_as_lists,
    # each payload field has the type save_kb writes (a string signature
    # loaded as a set of characters, and the others loaded as they were)
    "signature-string": _payload_of(signature="public"),
    "source-text-int": _payload_of(source_text=7),
    "name-list": _payload_of(name=["f"]),
    "contract-name-null": _payload_of(contract_name=None),
    "guf-float": _payload_of(guf=1.5),
    "guf-bool": _payload_of(guf=True),
    "token-count-bool": _payload_of(token_count=True),
    "min-tokens-float": lambda nodes, edges, clones, meta: clones.update(min_tokens=12.0),
    # a function node has one payload and one vector, and no other node has either
    "function-without-vector": lambda nodes, edges, clones, meta: _drop(
        _function_record(nodes), "vector"),
    "function-without-payload": lambda nodes, edges, clones, meta: _drop(
        _function_record(nodes), "payload"),
    "vector-on-variable": lambda nodes, edges, clones, meta: _node_record(nodes, "variable")
    .update(vector=[[0], [1.0]]),
    "payload-on-variable": lambda nodes, edges, clones, meta: _node_record(nodes, "variable")
    .update(payload=_function_record(nodes)["payload"]),
    "node-twice": lambda nodes, edges, clones, meta: nodes.append(_function_record(nodes)),
    # node records, edges and signature features in strictly ascending order,
    # as save_kb writes them (out of it, they loaded and re-saved to other bytes)
    "nodes-unsorted": lambda nodes, edges, clones, meta: nodes.insert(0, nodes.pop(1)),
    "edges-unsorted": lambda nodes, edges, clones, meta: edges.reverse(),
    "edge-twice": lambda nodes, edges, clones, meta: edges.insert(0, list(edges[0])),
    "signature-unsorted": _signature_of(lambda features: features.reverse()),
    "signature-repeated": _signature_of(lambda features: features.append(features[-1])),
    # an edge joins known nodes by a known relation of the kinds extract_triples
    # emits (a CALLS edge from a variable, and the guf it adds, loaded)
    "edge-unknown-endpoint": lambda nodes, edges, clones, meta: edges.append(
        [edges[-1][0], edges[-1][1], "~"]),
    "relation-unknown": _with_edge("function", "INVOKES", "function"),
    "calls-from-variable": _with_edge("variable", "CALLS", "function"),
    "reads-a-function": _with_edge("function", "READS", "function"),
    # guf is the clone-group size plus the CALLS in-degree (any other loaded as stored)
    "guf-raised": _guf_raised,
    "calls-edge-dropped": _calls_edge_dropped,
    # the clone groups are exactly the functions' clone ids
    "group-unknown-id": lambda nodes, edges, clones, meta: _grouped_record(nodes, clones)[1]
    .append("f" * 16),
    "group-wrong-clone-id": lambda nodes, edges, clones, meta: _grouped_record(nodes, clones)[0]
    ["payload"].update(clone_id="0" * 16),
    "group-missing-member": lambda nodes, edges, clones, meta: _drop(
        _grouped_record(nodes, clones)[1]),
    "group-extra": lambda nodes, edges, clones, meta: clones["groups"].update(
        {"0" * 16: [_function_record(nodes)["id"]]}),
    # a function has a clone id exactly if its token count reaches min_tokens
    # (999 left functions below it grouped, 0 left two at or above it
    # ungrouped; both loaded)
    "min-tokens-raised": lambda nodes, edges, clones, meta: clones.update(min_tokens=999),
    "min-tokens-zero": lambda nodes, edges, clones, meta: clones.update(min_tokens=0),
}


@pytest.mark.parametrize("mutate", _MALFORMED.values(), ids=_MALFORMED.keys())
def test_load_rejects_malformed_sections_as_corrupt(kb_file, tmp_path, mutate):
    path = _rewrite_kb(kb_file, tmp_path / "bad.scpk", mutate)
    with pytest.raises(FormatError) as err:
        load_kb(path)
    assert err.value.code == "Corrupt"


def test_load_rejects_vectors_of_differing_lengths_without_a_dimension(kb_file, tmp_path):
    # with no dimension in the metadata, buckets are bounded by the default, 256
    def drop_dimension(nodes, edges, clones, meta):
        del meta["dimension"]

    path = _rewrite_kb(kb_file, tmp_path / "nodim.scpk", drop_dimension)
    graph = load_kb(path)[0]
    assert max(bucket for buckets, _values in graph.vectors.values() for bucket in buckets) < 256
    assert index_from_graph(graph).dimension == 256

    def long_second_row(nodes, edges, clones, meta):
        drop_dimension(nodes, edges, clones, meta)
        buckets, values = _function_record(nodes, 1)["vector"]
        buckets.append(256)
        values.append(0.5)

    path = _rewrite_kb(kb_file, tmp_path / "ragged.scpk", long_second_row)
    with pytest.raises(FormatError) as err:
        load_kb(path)
    assert err.value.code == "Corrupt"


def test_empty_metadata_loads_and_queries_with_the_default_embedder(
        kb, kb_file, corpus_paths, tmp_path):
    path = _rewrite_kb(kb_file, tmp_path / "nometa.scpk",
                       lambda nodes, edges, clones, meta: [nodes, edges, clones, {}])
    graph, _clones = load_kb(path)
    assert graph.embedder_meta is None
    unit = load_source(corpus_paths[0])
    fn = unit.contracts[0].functions[0]
    assert retrieve(graph, unit, fn, k=3) == retrieve(kb[0], unit, fn, k=3)


def test_rewritten_but_unchanged_kb_still_loads(kb, kb_file, tmp_path):
    path = _rewrite_kb(kb_file, tmp_path / "same.scpk", lambda *sections: None)
    assert load_kb(path)[0] == kb[0]


def test_a_loaded_graph_still_deduplicates_added_edges(kb_file):
    graph = load_kb(kb_file)[0]
    edges = list(graph.edges)
    graph.add_edge(*edges[0])
    assert graph.edges == edges
    caller, callee = sorted(graph.vectors)[:2]
    added = (caller, Relation.CALLS, callee)
    assert added not in edges
    graph.add_edge(*added)
    graph.add_edge(*added)
    assert graph.edges == edges + [added]


def test_loaded_kb_retrieves_as_the_built_one(kb, kb_file, corpus_paths):
    built, loaded = kb[0], load_kb(kb_file)[0]
    queries = 0
    for path in corpus_paths:
        unit = load_source(path)
        for fn in (f for contract in unit.contracts for f in contract.functions):
            for k in (1, 3, 5):
                assert retrieve(loaded, unit, fn, k) == retrieve(built, unit, fn, k)
            queries += 1
    assert queries == 28


def test_loaded_kb_index_equals_the_built_one(kb, kb_file):
    built = index_from_graph(kb[0])
    loaded = index_from_graph(load_kb(kb_file)[0])
    assert len(built) == 28
    assert loaded.rows == built.rows
    assert loaded.packed == built.packed
    assert loaded.sq_norms == built.sq_norms
    assert ((loaded.dimension, loaded.scale, loaded.max_sq_norm)
            == (built.dimension, built.scale, built.max_sq_norm))
    assert [f.id for f in loaded.functions] == [f.id for f in built.functions]


def test_a_vector_of_norm_2_to_the_510_loads_and_retrieves_as_the_dense_scan(
        kb_file, corpus_paths, tmp_path):
    def largest_vector(nodes, edges, clones, meta):
        _function_record(nodes)["vector"] = [[0, 1, 2, 3], [2.0 ** 509] * 4]

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
        for fn in (f for contract in unit.contracts for f in contract.functions):
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
    graph = PropertyGraph()
    for i in range(draw(st.integers(0, 6))):
        fn = FunctionUnit(id=f"{i:016x}", contract_name="C", name=f"f{i}",
                          source_text=f"function f{i}() public {{}}",
                          signature=SignatureFeatures(frozenset({"public"})),
                          token_count=draw(st.integers(1, 40)))
        graph.add_node(EntityNode(fn.id, NodeKind.FUNCTION, fn.qualified_name, fn))
        chosen = tuple(sorted(draw(buckets)))
        values = tuple(draw(st.lists(value, min_size=len(chosen), max_size=len(chosen))))
        graph.vectors[fn.id] = EmbeddingVector(chosen, values)
    if graph.nodes:
        ids = st.sampled_from(sorted(graph.nodes))
        for subject_id, object_id in draw(st.lists(st.tuples(ids, ids), max_size=4)):
            graph.add_edge(subject_id, Relation.CALLS, object_id)
    clones = assign_clone_groups(graph, 12)
    compute_guf(graph, clones)
    graph.embedder_meta = {"name": HashingEmbedder.name, "dimension": dimension,
                           "corpus_hashes": {}}
    return graph, clones


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
    retrieve(graph, unit, unit.contracts[0].functions[0], k=3)


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
                                HashingEmbedder(256), 12)
    assert report.files_seen == 11
    assert report.files_used == 10
    assert [Path(p).name for p in report.duplicates_skipped] == ["token_copy.sol"]
    assert len(graph.function_nodes()) == 28


def test_build_kb_records_failures_and_continues(corpus_paths, tmp_path):
    broken = tmp_path / "broken.sol"
    broken.write_text("contract Broken { function f() public {")
    _, _, report = build_kb(list(corpus_paths) + [broken],
                            HashingEmbedder(256), 12)
    assert report.files_used == 10
    assert [Path(p).name for p in report.files_failed] == ["broken.sol"]


# ---------------------------------------------------------------------------
# One lex per file
# ---------------------------------------------------------------------------

#: SHA-256 of the KB saved from the fixture corpus with HashingEmbedder().
FIXTURE_KB_SHA256 = "9176367b1333c578849ed99079e54cee5b851df2e90a09627468d2dfe7a3df6f"


def test_fixture_kb_bytes_are_pinned(corpus_paths, tmp_path):
    graph, clones, _ = build_kb(corpus_paths, HashingEmbedder())
    path = tmp_path / "kb.scpk"
    save_kb(graph, clones, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == FIXTURE_KB_SHA256


def test_build_kb_lexes_each_file_once(corpus_paths, monkeypatch):
    calls = []
    for module in (ingest, embedding):
        original = module.lex
        monkeypatch.setattr(module, "lex", lambda *args, _lex=original, **kwargs:
                            calls.append(args[0]) or _lex(*args, **kwargs))
    _, _, report = build_kb(corpus_paths, HashingEmbedder(256), 12)
    # one parse per file; functions are embedded from the parse's tokens
    assert (report.files_used, report.function_count) == (10, 28)
    assert len(calls) == 10


def test_function_nodes_are_the_function_kind_nodes_in_insertion_order(kb, kb_file):
    for graph in (kb[0], load_kb(kb_file)[0]):
        assert graph.function_nodes() == [
            n for n in graph.nodes.values() if n.kind is NodeKind.FUNCTION]
        assert len(graph.function_nodes()) == 28
        graph.function_nodes().clear()  # a copy: the graph keeps its list
        assert len(graph.function_nodes()) == 28


def test_build_kb_clone_groups_match_standalone_grouping(kb, corpus_paths):
    _, clones, _ = kb
    graph, _ = _corpus_graph(corpus_paths)
    standalone = assign_clone_groups(graph, 12)
    assert standalone.groups == clones.groups
    assert {f.id: f.clone_id for f in graph.functions()} == \
        {f.id: f.clone_id for f in kb[0].functions()}


def test_build_kb_lists_parse_diagnostics_before_triple_diagnostics(tmp_path):
    paths = []
    for name in ("a", "b"):
        path = tmp_path / f"{name}.sol"
        path.write_text(f"contract {name.upper()} {{ @ ;\n"
                        f"function f() public {{ missing_{name}(); }} }}")
        paths.append(path)
    _, _, report = build_kb(paths, HashingEmbedder(16), 12)
    assert [line.split(": ", 1)[-1] if line.startswith(str(tmp_path)) else line
            for line in report.diagnostics] == [
        "line 1: skipped unexpected character '@'",
        "line 1: skipped unexpected character '@'",
        "A.f: unresolved call target 'missing_a'",
        "B.f: unresolved call target 'missing_b'",
    ]
