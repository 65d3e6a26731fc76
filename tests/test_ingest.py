import json
import random
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scpatcher.embedding import HashingEmbedder
from scpatcher.graph import build_kb
from scpatcher.ingest import (
    _KEYWORDS,
    RELATION_TYPING,
    IngestError,
    NodeRef,
    Token,
    Triple,
    canonical_source_hash,
    contract_ref,
    extract_triples_with_diagnostics,
    lex,
    load_source,
    modifier_ref,
    normalize_source,
    parse_source,
    type_ref,
    variable_ref,
)
from scpatcher.verify import check_compiles
from solidity_strategies import CONTRACT, NOISE, SOURCE

FIXTURES = Path(__file__).parent / "fixtures"
CORPUS = FIXTURES / "corpus"
ORACLES = FIXTURES / "oracles"


# ---------------------------------------------------------------------------
# Lexing and normalization
# ---------------------------------------------------------------------------

def test_lex_spans_reconstruct_source():
    text = 'contract A { uint256 x = 0x1f; string s = "he{llo"; }'
    for tok in lex(text):
        assert text[tok.start:tok.end] == tok.text


def test_normalize_masks_identifiers_and_literals():
    assert normalize_source(lex("x = y + 1;")) == ["ID", "=", "ID", "+", "LIT", ";"]
    assert normalize_source(lex('emit Paid(msg.sender, "hi");')) == \
        ["emit", "ID", "(", "ID", ".", "ID", ",", "LIT", ")", ";"]


def test_normalize_drops_comments_and_whitespace():
    a = normalize_source(lex("uint256 x = 2;"))
    b = normalize_source(lex("// note\nuint256   x /* inline */ = 2;   "))
    assert a == b == ["uint256", "ID", "=", "LIT", ";"]


def test_elementary_types_are_kept_verbatim():
    assert normalize_source(lex("uint8 a; bytes32 b; address c;")) == \
        ["uint8", "ID", ";", "bytes32", "ID", ";", "address", "ID", ";"]


def test_renaming_identifiers_preserves_normalization():
    # consistent alpha-renaming must not change the normalized sequence
    rng = random.Random(20240817)
    for path in (CORPUS / "token.sol", CORPUS / "escrow.sol"):
        text = path.read_text()
        idents = sorted({t.text for t in lex(text) if t.kind == "ident"})
        fresh = [f"v{i}_{rng.randrange(1_000_000)}" for i in range(len(idents))]
        rng.shuffle(fresh)
        mapping = dict(zip(idents, fresh))
        renamed = []
        cursor = 0
        for tok in lex(text):
            renamed.append(text[cursor:tok.start])
            renamed.append(mapping[tok.text] if tok.kind == "ident" else tok.text)
            cursor = tok.end
        renamed.append(text[cursor:])
        assert normalize_source(lex("".join(renamed))) == normalize_source(lex(text))


def test_changing_literals_preserves_normalization():
    a = 'function f() public { x = 10; s = "left"; }'
    b = 'function f() public { x = 999; s = "right"; }'
    assert normalize_source(lex(a)) == normalize_source(lex(b))


def test_canonical_hash_ignores_layout_but_not_names():
    a = "contract A { uint256 x; }"
    b = "contract A {\n    // state\n    uint256 x;\n}"
    c = "contract A { uint256 y; }"
    assert canonical_source_hash(lex(a)) == canonical_source_hash(lex(b))
    assert canonical_source_hash(lex(a)) != canonical_source_hash(lex(c))


#: The lexer's regular expression before ``lex`` became one ``findall``, one
#: named group per token kind, kept here unchanged as the oracle's.
_REFERENCE_RE = re.compile(
    r"""
      (?P<comment>//[^\n]*|/\*.*?\*/)
    | (?P<string>hex"(?:[^"\\]|\\.)*"|unicode"(?:[^"\\]|\\.)*"
                 |"(?:[^"\\\n]|\\.)*"|'(?:[^'\\\n]|\\.)*')
    | (?P<number>0[xX][0-9a-fA-F_]+|\d[\d_]*(?:\.\d[\d_]*)?(?:[eE][+-]?\d+)?)
    | (?P<ident>[A-Za-z_$][A-Za-z0-9_$]*)
    | (?P<op><<=|>>=|\*\*|\+\+|--|&&|\|\||==|!=|<=|>=|\+=|-=|\*=|/=|%=|\|=|&=|\^=|<<|>>|=>|->
             |[{}()\[\];,.?:~!<>=+\-*/%&|^])
    | (?P<ws>\s+)
    | (?P<bad>.)
    """,
    re.DOTALL | re.VERBOSE,
)


def _reference_lex(text):
    """A per-position lexer: one ``_REFERENCE_RE.match`` per token, comment
    or whitespace run, and a diagnostic for each character where no
    alternative but ``bad`` matches. Returns (tokens as five-field tuples,
    diagnostics)."""
    tokens, diagnostics = [], []
    pos, line = 0, 1
    while pos < len(text):
        match = _REFERENCE_RE.match(text, pos)
        if match is None or match.lastgroup == "bad":
            diagnostics.append(f"line {line}: skipped unexpected character {text[pos]!r}")
            pos += 1
            continue
        group, value = match.lastgroup, match.group()
        if group == "ident":
            kind = "keyword" if value in _KEYWORDS else "ident"
            tokens.append((kind, value, match.start(), match.end(), line))
        elif group in ("number", "string", "op"):
            tokens.append((group, value, match.start(), match.end(), line))
        line += value.count("\n")
        pos = match.end()
    return tokens, diagnostics


def _assert_lex_matches_reference(text):
    diagnostics = []
    tokens = lex(text, diagnostics)
    assert all(type(tok) is Token for tok in tokens)
    assert ([(t.kind, t.text, t.start, t.end, t.line) for t in tokens], diagnostics) == \
        _reference_lex(text)


def test_lex_matches_the_reference_lexer_on_every_fixture():
    paths = sorted(FIXTURES.rglob("*.sol"))
    assert len(paths) >= 30
    for path in paths:
        _assert_lex_matches_reference(path.read_text(encoding="utf-8"))


#: Pieces that stress the lexer's edges: unterminated strings and comments,
#: literals that span lines, characters no alternative takes, and Unicode
#: whitespace and digits.
_LEX_PIECES = ['"', "'", "\\", "\n", "\r\n", "/*", "*/", "//", 'hex"', 'unicode"', "#", "@",
               'hex"0\n1"', '"a\\\nb"', "'\\\n'", 'unicode"\u2028\n"', "/*\n*/",
               "\x1c", "\u00a0", "\u2028", "\t", " ", "x", "_$1", "0x", "1.5e3", "\u0663",
               "=", "<<=", "{", "}", "é", "hexa", 'hex"ab"x', 'unicode"é"', "$a1",
               "/*\r\n*/", "//c", " \t\n "]


@settings(max_examples=300)
@example("")
@example("x //c")
@example("x \t\n ")
@given(st.one_of(SOURCE,
                 st.text(),
                 st.lists(st.sampled_from(_LEX_PIECES + NOISE), max_size=30).map("".join)))
def test_lex_matches_the_reference_lexer(text):
    _assert_lex_matches_reference(text)


def test_lex_tokens_are_immutable_hashable_tuples():
    tok = lex("uint256 x")[1]
    assert tok == Token("ident", "x", 8, 9, 1)
    assert repr(tok) == "Token(kind='ident', text='x', start=8, end=9, line=1)"
    assert Token._fields == ("kind", "text", "start", "end", "line")
    assert hash(tok) == hash(Token("ident", "x", 8, 9, 1))
    with pytest.raises(AttributeError):
        tok.line = 2


def test_lex_counts_lines_inside_literals_and_reports_stray_characters():
    diagnostics = []
    tokens = lex('hex"00\n11" /* a\nb */ "x\\\ny" #\nz', diagnostics)
    assert [(t.text, t.line) for t in tokens] == \
        [('hex"00\n11"', 1), ('"x\\\ny"', 3), ("z", 5)]
    assert diagnostics == ["line 4: skipped unexpected character '#'"]


def test_brace_balance_ignores_strings_and_comments():
    """Braces in strings and comments are not tokens. The two
    ``UnbalancedBraces`` texts are pinned whole: the compile check passes
    them verbatim into the stage-2 feedback."""
    unit = parse_source('contract A { string s = "}{"; /* } */ }')
    assert [(c.name, c.state_vars) for c in unit.contracts] == [("A", [("s", "string")])]
    for source, message in [
        ("contract A { function f() { }", "a.sol: end of file: 1 unclosed brace(s)"),
        ("contract A {\n}\n} /* { */ {", "a.sol: line 3: closing brace without opener"),
    ]:
        with pytest.raises(IngestError) as err:
            parse_source(source, "a.sol")
        assert (err.value.code, str(err.value)) == ("UnbalancedBraces", message)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def test_parse_minimal_contract():
    unit = parse_source("pragma solidity ^0.8.0;\ncontract A { function f() public {} }")
    assert unit.pragma_version == "^0.8.0"
    assert [c.name for c in unit.contracts] == ["A"]
    fn = unit.contracts[0].functions[0].fn
    assert fn.name == "f"
    assert "public" in fn.signature


def test_parse_twice_is_deterministic(corpus_paths):
    for path in corpus_paths:
        first = load_source(path)
        second = load_source(path)
        ids_a = [d.fn.id for d in first.declarations()]
        ids_b = [d.fn.id for d in second.declarations()]
        assert ids_a == ids_b


def test_function_source_is_a_file_slice(corpus_paths):
    for path in corpus_paths:
        unit = load_source(path)
        for contract in unit.contracts:
            for fn in (decl.fn for decl in contract.functions):
                assert fn.source_text in unit.source_text


def test_unbalanced_braces_raise():
    with pytest.raises(IngestError) as err:
        parse_source("contract A { function f() public {")
    assert err.value.code == "UnbalancedBraces"


def test_non_utf8_raises(tmp_path):
    bad = tmp_path / "bad.sol"
    bad.write_bytes(b"contract A {\xff\xfe}")
    with pytest.raises(IngestError) as err:
        load_source(bad)
    assert err.value.code == "NonUtf8"


def test_string_literal_in_signature_raises_malformed_declaration():
    for source in ('contract A { function f(uint x, "not enough") public {} }',
                   'contract A { function f() public returns ("a b") {} }'):
        with pytest.raises(IngestError) as err:
            parse_source(source)
        assert err.value.code == "MalformedDeclaration"


def test_unparseable_member_becomes_diagnostic():
    unit = parse_source("contract A { @ %% ; function f() public {} }")
    assert [d.fn.name for d in unit.contracts[0].functions] == ["f"]
    assert unit.diagnostics


@pytest.mark.parametrize("source, version", [
    ("pragma solidity ^0.8.0\ncontract A { function f() public {} }", "^0.8.0"),
    ("pragma solidity >=0.7.0 <0.9.0\nabstract contract A { function f() public {} }",
     ">=0.7.0<0.9.0"),
    ("pragma solidity 0.8.19\npragma abicoder v2;\nlibrary A { function f() public {} }",
     "0.8.19"),
], ids=["contract", "abstract-contract", "next-pragma"])
def test_pragma_without_a_semicolon_ends_at_the_next_declaration(source, version):
    unit = parse_source(source)
    assert [decl.fn.qualified_name for decl in unit.declarations()] == ["A.f"]
    assert (unit.pragma_version, unit.diagnostics) == (version, ["line 1: pragma without ';'"])
    compiled, diagnostics = check_compiles(source)
    assert compiled is not None and diagnostics == ["line 1: pragma without ';'"]


_FREE_FUNCTION_SOURCE = ("pragma solidity ^0.8.0;\n"
                         "struct S { function (uint) external cb; }\n"
                         "function g() pure returns (uint) { return 1; }\n"
                         "contract A { function f() public { g(); } }")


def test_file_level_function_gets_a_record_outside_every_contract():
    # a function type in a file-level struct is no free function
    unit = parse_source(_FREE_FUNCTION_SOURCE)
    assert [decl.fn.qualified_name for decl in unit.declarations()] == ["A.f", "g"]
    [free] = unit.free_functions
    assert (free.fn.contract_name, free.fn.name, free.header.return_types) == ("", "g", ["uint"])
    assert [decl.fn.name for decl in unit.contracts[0].functions] == ["f"]
    assert unit.diagnostics == []
    [call] = unit.contracts[0].functions[0].calls
    assert (call.kind, call.callee) == ("resolved", free.fn)


def test_a_call_to_a_free_function_is_a_calls_edge_and_the_free_function_has_no_owner():
    unit = parse_source(_FREE_FUNCTION_SOURCE)
    triples, diagnostics = extract_triples_with_diagnostics(unit)
    assert diagnostics == []
    edges = {(t.subject.label, t.relation, t.obj.label) for t in triples}
    assert ("A.f", "CALLS", "g") in edges and ("g", "RETURNS", "uint") in edges
    assert not any(obj == "g" for _subject, relation, obj in edges if relation == "OWNS")


# ---------------------------------------------------------------------------
# The group table
# ---------------------------------------------------------------------------

_CLOSER = {"(": ")", "[": "]", "{": "}"}

#: Token soups: every bracket kind, both separators and a name.
_SOUP = st.lists(st.sampled_from(list("()[]{};,x")), max_size=40)


def _reference_group_end(texts, i, stop):
    """A same-kind depth count over ``texts[i:stop]`` from the opener at ``i``."""
    depth = 0
    for j in range(i, stop):
        if texts[j] == texts[i]:
            depth += 1
        elif texts[j] == _CLOSER[texts[i]]:
            depth -= 1
            if depth == 0:
                return j + 1
    return stop


def _reference_scan(texts, i, stop, targets):
    """A walk to the first text in ``targets`` that steps over each group."""
    while i < stop and texts[i] not in targets:
        i = _reference_group_end(texts, i, stop) if texts[i] in _CLOSER else i + 1
    return i


def _reference_brace_error(soup):
    """The first brace fault of a soup laid out one token per line."""
    depth = 0
    for line, text in enumerate(soup, 1):
        depth += (text == "{") - (text == "}")
        if depth < 0:
            return f"soup: line {line}: closing brace without opener"
    return f"soup: end of file: {depth} unclosed brace(s)" if depth else None


def _balance_braces(soup):
    """The soup without its unpaired '}', and with a '}' for each open '{'."""
    out, depth = [], 0
    for text in soup:
        if text == "}" and depth == 0:
            continue
        depth += (text == "{") - (text == "}")
        out.append(text)
    return out + ["}"] * depth


@settings(max_examples=300)
@given(_SOUP)
def test_brace_faults_match_a_depth_count(soup):
    expected = _reference_brace_error(soup)
    try:
        parse_source("\n".join(soup), "soup")
    except IngestError as err:
        assert (err.code, str(err)) == ("UnbalancedBraces", expected)
    else:
        assert expected is None


@settings(max_examples=300)
@example(list("([)]{(}"))
@given(_SOUP.map(_balance_braces))
def test_group_end_and_scan_match_a_walk_over_the_tokens(soup):
    unit = parse_source(" ".join(soup))
    texts = [tok.text for tok in unit.tokens]
    assert texts == soup
    for i, text in enumerate(texts):
        for stop in range(i + 1, len(texts) + 1):
            expected = _reference_group_end(texts, i, stop) if text in _CLOSER else i + 1
            assert unit.group_end(i, stop) == expected
    for i in range(len(texts) + 1):
        for stop in range(i, len(texts) + 1):
            for targets in ((";",), (",",), ("{", ";"), ("(", "]")):
                assert unit.scan(i, stop, targets) == _reference_scan(texts, i, stop, targets)


def _function_facts(decl):
    header = decl.header
    return (header.name, header.param_types, header.param_names, header.return_types,
            header.modifiers, decl.fn.signature.sorted_features())


#: Valid members whose scan crosses a group, and what each parses to:
#: (source, state variables, modifiers, per function (name, parameter types,
#: parameter names, return types, modifiers, signature features)).
_GROUP_CROSSING_CASES = {
    "inheritance-arguments": (
        "contract A is B(1, 2) { uint x; function f() public {} }",
        [("x", "uint")], [],
        [("f", [], [], [], [], ["nonpayable", "public"])]),
    "modifier-parameters": (
        "contract A { modifier m(uint a) { require(a > 0); _; }\n"
        "function g(uint a) public m(a) {} }",
        [], ["m"],
        [("g", ["uint"], ["a"], [], ["m"], ["mod:m", "nonpayable", "param:uint", "public"])]),
    "mapping-of-arrays": (
        "contract A { mapping(address => uint[]) public m; uint y; }",
        [("m", "mapping(address=>uint[])"), ("y", "uint")], [], []),
    "array-initializer": (
        "contract A { uint[2] public xs = [1, 2]; uint y; }",
        [("xs", "uint[2]"), ("y", "uint")], [], []),
    "event": (
        "contract A { event E(uint indexed a); uint y; }",
        [("y", "uint")], [], []),
    "error": (
        "contract A { error Err(uint a); uint y; }",
        [("y", "uint")], [], []),
    "using-for": (
        "contract A { using L for uint; uint y; }",
        [("y", "uint")], [], []),
    "array-and-return-list": (
        "contract A { function f(uint[2] memory a, bytes calldata b) external "
        "returns (uint, bool) { return (a[0], b.length > 0); } }",
        [], [],
        [("f", ["uint[2]", "bytes"], ["a", "b"], ["uint", "bool"], [],
          ["external", "nonpayable", "param:bytes", "param:uint[2]", "ret:bool", "ret:uint"])]),
    "nested-struct": (
        "contract A { struct P { uint x; } struct Q { P p; mapping(uint => P) ps; }\n"
        "Q q; function f() public view returns (uint) { return q.p.x; } }",
        [("q", "Q")], [],
        [("f", [], [], ["uint"], [], ["public", "ret:uint", "view"])]),
}


@pytest.mark.parametrize("case", list(_GROUP_CROSSING_CASES))
def test_valid_members_that_cross_a_group_keep_their_parse(case):
    source, state_vars, modifiers, functions = _GROUP_CROSSING_CASES[case]
    unit = parse_source(source)
    [contract] = unit.contracts
    assert (contract.name, unit.diagnostics) == ("A", [])
    assert contract.state_vars == state_vars
    assert contract.modifiers == modifiers
    assert [_function_facts(decl) for decl in contract.functions] == functions


def test_named_arguments_in_a_header_stay_inside_their_group():
    """A ``{`` of named arguments inside an inheritance specifier's or a
    modifier invocation's parentheses does not open the body."""
    unit = parse_source("contract A is B({x: 1}) { uint y;\n"
                        "function f() public m({a: 1}) { y = 2; } }")
    [contract] = unit.contracts
    assert (contract.state_vars, unit.diagnostics) == ([("y", "uint")], [])
    [decl] = contract.functions
    assert decl.header.modifiers == ["m"]
    assert [t.text for t in unit.body_tokens(decl)] == ["y", "=", "2", ";"]


# ---------------------------------------------------------------------------
# Signatures
# ---------------------------------------------------------------------------

def test_signature_oracle(corpus_paths):
    oracle = json.loads((ORACLES / "signatures.json").read_text())["signatures"]
    seen = {}
    for path in corpus_paths:
        unit = load_source(path)
        for contract in unit.contracts:
            for fn in (decl.fn for decl in contract.functions):
                seen[fn.qualified_name] = fn.signature.sorted_features()
    for qualified, expected in oracle.items():
        assert seen[qualified] == expected, qualified


# ---------------------------------------------------------------------------
# Triples
# ---------------------------------------------------------------------------

def _labels(triple):
    """A triple as ("kind:label", relation name, "kind:label")."""
    return (f"{triple.subject.kind}:{triple.subject.label}",
            triple.relation,
            f"{triple.obj.kind}:{triple.obj.label}")


def test_multi_contract_triples_match_hand_trace():
    oracle = json.loads((ORACLES / "multi_triples.json").read_text())["triples"]
    unit = load_source(CORPUS / "multi.sol")
    actual = [list(_labels(t)) for t in extract_triples_with_diagnostics(unit)[0]]
    assert sorted(actual) == sorted(oracle)


def test_per_file_triple_counts_match_hand_trace(corpus_paths):
    oracle = json.loads((ORACLES / "corpus_counts.json").read_text())
    total = 0
    for path in corpus_paths:
        unit = load_source(path)
        triples, _ = extract_triples_with_diagnostics(unit)
        assert len(triples) == oracle["triples_per_file"][path.name], path.name
        total += len(triples)
    assert total == oracle["triples_total"]


#: One endpoint of each kind.
_REFS = {
    "contract": contract_ref("A"),
    "function": NodeRef("function", "0123456789abcdef", "A.f"),
    "variable": variable_ref("A", "x"),
    "modifier": modifier_ref("A", "onlyOwner"),
    "type": type_ref("uint256"),
}


@pytest.mark.parametrize("relation", list(RELATION_TYPING), ids="Relation.{}".format)
def test_every_way_to_build_an_ill_typed_triple_raises(relation):
    subject_kind, object_kinds = RELATION_TYPING[relation]
    subject, obj = _REFS[subject_kind], _REFS[sorted(object_kinds)[0]]
    good = Triple(subject, relation, obj)
    assert good == (subject, relation, obj) and type(good) is Triple
    wrong = [(ref, obj) for kind, ref in _REFS.items() if kind != subject_kind]
    wrong += [(subject, ref) for kind, ref in _REFS.items() if kind not in object_kinds]
    assert wrong
    for bad_subject, bad_obj in wrong:
        message = f"ill-typed triple: {bad_subject.kind} -{relation}-> {bad_obj.kind}"
        for build in (lambda: Triple(bad_subject, relation, bad_obj),
                      lambda: Triple._make([bad_subject, relation, bad_obj]),
                      lambda: good._replace(subject=bad_subject, obj=bad_obj)):
            with pytest.raises(ValueError) as err:
                build()
            assert str(err.value) == message


def test_the_relations_join_every_node_kind():
    kinds = {kind for subject_kind, object_kinds in RELATION_TYPING.values()
             for kind in (subject_kind, *object_kinds)}
    assert kinds == _REFS.keys()


@pytest.mark.parametrize("relation", ["INVOKES", "calls", ""])
def test_a_triple_of_an_unknown_relation_raises(relation):
    subject = _REFS["function"]
    good = Triple(subject, "CALLS", subject)
    for build in (lambda: Triple(subject, relation, subject),
                  lambda: Triple._make([subject, relation, subject]),
                  lambda: good._replace(relation=relation)):
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == f"unknown relation {relation!r}"


def test_triples_hash_and_compare_by_field(corpus_paths):
    for path in corpus_paths:
        triples = extract_triples_with_diagnostics(load_source(path))[0]
        rebuilt = [Triple(NodeRef(*t.subject), t.relation, NodeRef(*t.obj)) for t in triples]
        assert rebuilt == triples
        assert [hash(t) for t in rebuilt] == [hash(t) for t in triples]
        assert set(rebuilt) == set(triples)
        assert all(type(t) is Triple and type(t.subject) is type(t.obj) is NodeRef
                   for t in triples)


def test_member_transfer_call_is_a_diagnostic_not_an_edge():
    unit = load_source(CORPUS / "escrow.sol")
    triples, diags = extract_triples_with_diagnostics(unit)
    labels = [_labels(t) for t in triples]
    assert not any(rel == "CALLS" for _, rel, _ in labels)
    assert any("transfer" in d for d in diags)


def test_member_send_and_transfer_never_call_a_same_named_function(tmp_path):
    """A member ``.transfer(...)`` or ``.send(...)`` moves value and has no
    callee, even where the unit declares ``transfer`` and ``send``; only the
    call by name is a CALLS edge, and only it counts towards GUF."""
    source = (
        "contract T { function transfer(address to, uint a) public {}\n"
        "function send(address to) public {}\n"
        "function pay(address payable p) public { p.transfer(1); p.send(1); }\n"
        "function move(address to) public { transfer(to, 1); } }"
    )
    unit = parse_source(source)
    triples, diags = extract_triples_with_diagnostics(unit)
    calls = [(s, o) for s, rel, o in map(_labels, triples) if rel == "CALLS"]
    assert calls == [("function:T.move", "function:T.transfer")]
    assert diags == ["T.pay: value .transfer() left unresolved",
                     "T.pay: value .send() left unresolved"]
    pay = next(d for d in unit.declarations() if d.fn.name == "pay")
    assert [(site.token.text, site.kind, site.callee, site.value) for site in pay.calls] == \
        [("transfer", "value", None, True), ("send", "value", None, True)]
    path = tmp_path / "t.sol"
    path.write_text(source, encoding="utf-8")
    graph, _clones, _report = build_kb([str(path)], HashingEmbedder(256))
    guf = {fn.name: fn.guf for fn in graph.functions()}
    assert guf["transfer"] == guf["move"] + 1 and guf["send"] == guf["move"]


def test_low_level_call_is_a_diagnostic_not_an_edge():
    unit = load_source(CORPUS / "vault.sol")
    triples, diags = extract_triples_with_diagnostics(unit)
    labels = [_labels(t) for t in triples]
    assert not any(rel == "CALLS" for _, rel, _ in labels)
    assert any("call" in d for d in diags)


@pytest.mark.parametrize("call", ['msg.sender.call.value(1)("")',
                                  'msg.sender.call.gas(5000).value(1)("")'])
def test_pre_07_call_options_are_a_low_level_call_not_an_edge(call):
    # `value` and `gas` here are options of the low-level call, never
    # calls of the contract's own `value()`
    unit = parse_source(
        "pragma solidity ^0.4.24;\n"
        "contract V { uint256 x;\n"
        "function value() public returns (uint256) { return x; }\n"
        f"function w() public {{ {call}; x = 0; }} }}"
    )
    triples, diags = extract_triples_with_diagnostics(unit)
    assert not any(rel == "CALLS" for _, rel, _ in (_labels(t) for t in triples))
    assert diags == ["V.w: low-level .call() left unresolved"]
    [site] = next(d for d in unit.declarations() if d.fn.name == "w").calls
    assert (site.token.text, site.kind, site.value) == ("call", "low-level", True)


def test_require_and_builtins_never_resolve_as_calls():
    unit = parse_source(
        "contract A { uint256 x;\n"
        "function f() public { require(x > 0, \"no\"); x = uint256(keccak256(\"s\")); } }"
    )
    labels = [_labels(t) for t in extract_triples_with_diagnostics(unit)[0]]
    assert not any(rel == "CALLS" for _, rel, _ in labels)


def test_parameter_shadowing_suppresses_state_access():
    unit = parse_source(
        "contract A { uint256 amount;\n"
        "function f(uint256 amount) public { amount = 1; } }"
    )
    labels = [_labels(t) for t in extract_triples_with_diagnostics(unit)[0]]
    assert not any(rel in ("READS", "WRITES") for _, rel, _ in labels)


# ---------------------------------------------------------------------------
# One lex per file: declarations index the file's tokens
# ---------------------------------------------------------------------------

def _assert_declarations_index_the_tokens(unit):
    text = unit.source_text
    for contract in unit.contracts:
        for decl in contract.functions:
            fn = decl.fn
            recorded = unit.tokens[decl.start:decl.end]
            assert [(t.kind, t.text) for t in recorded] == \
                [(t.kind, t.text) for t in lex(fn.source_text)]
            assert text[recorded[0].start:recorded[-1].end] == fn.source_text
            for tok in recorded:
                assert text[tok.start:tok.end] == tok.text
                assert tok.line == text.count("\n", 0, tok.start) + 1
            assert decl.normalized == normalize_source(lex(fn.source_text))
            assert len(decl.normalized) == fn.token_count
            assert decl.start <= decl.body_start <= decl.body_end <= decl.end
            body = unit.body_tokens(decl)
            assert all(body[site.index] is site.token for site in decl.calls)
            assert {id(tok) for tok, _ in decl.accesses} <= {id(tok) for tok in body}


def test_declaration_tokens_equal_a_lex_of_the_function():
    paths = sorted(FIXTURES.rglob("*.sol"))
    assert len(paths) >= 30
    functions = 0
    for path in paths:
        unit = load_source(path)
        _assert_declarations_index_the_tokens(unit)
        functions += sum(len(c.functions) for c in unit.contracts)
    assert functions >= 70


def test_body_tokens_are_inside_the_outer_braces():
    unit = parse_source("contract A {\n  function f(uint a) public returns (uint) {\n"
                        "    if (a > 0) { a = 1; }\n    return a;\n  }\n"
                        "  function g() external;\n}")
    f_decl, g_decl = unit.contracts[0].functions
    body = [t.text for t in unit.body_tokens(f_decl)]
    assert body == ["if", "(", "a", ">", "0", ")", "{", "a", "=", "1", ";", "}",
                    "return", "a", ";"]
    assert unit.body_tokens(f_decl)[0].line == 3
    assert f_decl.header.return_types == ["uint"]
    assert unit.body_tokens(g_decl) == []
    assert g_decl.header.visibility == "external"


@settings(max_examples=200)
@given(st.lists(CONTRACT, max_size=3), st.sampled_from(NOISE))
def test_parse_raises_ingest_error_or_indexes_its_tokens(contracts, lead):
    text = lead + "pragma solidity ^0.8.0;" + "".join(contracts)
    try:
        unit = parse_source(text)
    except IngestError:
        return
    _assert_declarations_index_the_tokens(unit)
