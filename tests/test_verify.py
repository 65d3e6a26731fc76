import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scpatcher import ingest, verify
from scpatcher.ingest import load_source, parse_source
from scpatcher.model import PatchCandidate, RepairStage, VulnClass, VulnerabilityReport
from scpatcher.verify import check_compiles, detect, verify_patch
from solidity_strategies import SOURCE

FIXTURES = Path(__file__).parent / "fixtures"
DETECTORS = FIXTURES / "detectors"
EVAL_CASES = FIXTURES / "eval_cases"
ORACLES = FIXTURES / "oracles"

PAIRS = {
    VulnClass.INTEGER_OVERFLOW: ("overflow_vuln.sol", "overflow_fixed.sol", "grant"),
    VulnClass.REENTRANCY: ("reentrancy_vuln.sol", "reentrancy_fixed.sol", "withdraw"),
    VulnClass.ACCESS_CONTROL: ("access_vuln.sol", "access_fixed.sol", "claim"),
    VulnClass.TIMESTAMP_MANIPULATION: ("timestamp_vuln.sol", "timestamp_fixed.sol", "draw"),
    VulnClass.UNCHECKED_CALL_RETURN: ("unchecked_vuln.sol", "unchecked_fixed.sol", "payout"),
}


# A string literal with a space in a parameter list: the signature cannot be
# normalized, so the source does not parse.
MALFORMED = 'contract A { function f(uint x, "not enough") public {} }'


def _patch(source):
    return PatchCandidate(patched_source=source,
                          stage=RepairStage.KNOWLEDGE_GUIDED,
                          prompt_digest="0" * 64)


def _original(name):
    return load_source(DETECTORS / name)


def _report(unit, vuln_class, function=None):
    """A report on ``function`` of ``unit``; with none, an id that resolves
    to no function."""
    fn_id = unit.find_function_by_name(function).id if function else "a" * 16
    return VulnerabilityReport(contract_path=unit.path, function_id=fn_id,
                               vuln_class=vuln_class)


# ---------------------------------------------------------------------------
# Compile checking
# ---------------------------------------------------------------------------

def test_builtin_check_accepts_wellformed_source():
    unit, _ = check_compiles("pragma solidity ^0.8.0;\ncontract A { function f() public {} }")
    assert [c.name for c in unit.contracts] == ["A"]


def test_builtin_check_rejects_unbalanced_braces():
    unit, diags = check_compiles("contract A { function f() public {")
    assert unit is None
    assert any("UnbalancedBraces" in d for d in diags)


def test_builtin_check_rejects_malformed_signature():
    unit, diags = check_compiles(MALFORMED)
    assert unit is None
    assert any("MalformedDeclaration" in d for d in diags)


def test_builtin_check_requires_a_contract():
    unit, diags = check_compiles("uint256 x = 1;")
    assert unit is None
    assert any("no contract declaration" in d for d in diags)


# ---------------------------------------------------------------------------
# Detection matrix
# ---------------------------------------------------------------------------

def test_detector_matrix_matches_hand_labels():
    oracle = json.loads((ORACLES / "detector_matrix.json").read_text())["matrix"]
    for name, expected in oracle.items():
        got = detect((DETECTORS / name).read_text())
        rendered = [
            {"vuln_class": d.vuln_class.value, "function": d.function_name,
             "line": d.line, "rule": d.rule_id}
            for d in got
        ]
        assert sorted(rendered, key=lambda r: (r["vuln_class"], r["function"])) == \
            sorted(expected, key=lambda r: (r["vuln_class"], r["function"])), name


def test_detect_respects_class_filter():
    source = (DETECTORS / "access_vuln.sol").read_text()
    found = detect(source)
    only_ts = [d for d in found if d.vuln_class is VulnClass.TIMESTAMP_MANIPULATION]
    assert only_ts == []
    only_ac = [d for d in found if d.vuln_class is VulnClass.ACCESS_CONTROL]
    assert {d.vuln_class for d in only_ac} == {VulnClass.ACCESS_CONTROL}


def test_detect_is_deterministic():
    source = (DETECTORS / "reentrancy_vuln.sol").read_text()
    assert detect(source) == detect(source)


def test_detect_tolerates_unparseable_source():
    assert detect("contract Broken { function f() public {") == []
    assert detect(MALFORMED) == []


def test_detection_identity_is_class_and_function():
    source = (DETECTORS / "overflow_vuln.sol").read_text()
    keys = {d.key() for d in detect(source)}
    assert keys == {("IntegerOverflow", "grant"), ("IntegerOverflow", "spend")}


def test_detectors_check_contract_functions_only():
    body = "{ if (block.timestamp % 2 == 0) { return 1; } return 0; }"
    free = f"function g() view returns (uint) {body}\ncontract A {{ function f() public {{}} }}"
    owned = f"contract A {{ function g() public view returns (uint) {body} }}"
    assert detect(free) == []
    assert [d.key() for d in detect(owned)] == [("TimestampManipulation", "g")]


# ---------------------------------------------------------------------------
# Patch verification
# ---------------------------------------------------------------------------

def test_identity_patch_never_creates_new_issues():
    for vuln_class, (vuln_name, _, function) in PAIRS.items():
        unit = _original(vuln_name)
        result = verify_patch(unit, _patch(unit.source_text),
                              _report(unit, vuln_class, function))
        assert result.compiled
        assert result.new_issues == []
        assert not result.target_vuln_cleared
        assert not result.passed
        assert any("still detected" in line for line in result.failure_feedback())


def test_fixed_variants_pass_verification():
    for vuln_class, (vuln_name, fixed_name, function) in PAIRS.items():
        original = _original(vuln_name)
        patched = (DETECTORS / fixed_name).read_text()
        result = verify_patch(original, _patch(patched),
                              _report(original, vuln_class, function))
        assert result.passed, (vuln_name, result.failure_feedback())
        assert result.failure_feedback() == []


def test_eval_case_patches_pass_verification():
    entries = json.loads((EVAL_CASES / "manifest.json").read_text())["entries"]
    patches = sorted((EVAL_CASES / "patches").glob("patch*_*.sol"))
    assert len(patches) == 5
    for patch_path in patches:
        number = int(patch_path.name[len("patch"):].split("_")[0])
        entry = next(e for e in entries if e["path"].startswith(f"case{number}_"))
        unit = load_source(EVAL_CASES / entry["path"])
        fn = unit.find_function_by_name(entry["function"])
        report = VulnerabilityReport(contract_path=entry["path"], function_id=fn.id,
                                     vuln_class=VulnClass.parse(entry["vuln_class"]))
        result = verify_patch(unit, _patch(patch_path.read_text()), report)
        assert result.passed, (patch_path.name, result.failure_feedback())


def test_uncompilable_patch_fails_with_feedback():
    original = _original("reentrancy_vuln.sol")
    result = verify_patch(original, _patch("contract Broken { function f() {"),
                          _report(original, VulnClass.REENTRANCY, "withdraw"))
    assert not result.compiled
    assert not result.passed
    feedback = result.failure_feedback()
    assert feedback and all(line.startswith("patch failed to compile") for line in feedback)


def test_malformed_signature_patch_does_not_compile():
    original = _original("reentrancy_vuln.sol")
    result = verify_patch(original, _patch(MALFORMED),
                          _report(original, VulnClass.REENTRANCY))
    assert not result.compiled
    assert any("MalformedDeclaration" in line for line in result.failure_feedback())


def test_new_issue_blocks_an_otherwise_clean_patch():
    original = _original("reentrancy_vuln.sol")
    # clears the reentrancy but authenticates with tx.origin
    patched = original.source_text.replace(
        'require(balances[msg.sender] >= amount, "insufficient");',
        'require(tx.origin == msg.sender, "no contracts");\n'
        '        require(balances[msg.sender] >= amount, "insufficient");',
    ).replace(
        '(bool ok, ) = msg.sender.call{value: amount}("");\n'
        '        require(ok, "send failed");\n'
        '        balances[msg.sender] = 0;',
        'balances[msg.sender] = 0;\n'
        '        (bool ok, ) = msg.sender.call{value: amount}("");\n'
        '        require(ok, "send failed");',
    )
    result = verify_patch(original, _patch(patched),
                          _report(original, VulnClass.REENTRANCY, "withdraw"))
    assert result.compiled
    assert result.target_vuln_cleared
    assert [d.key() for d in result.new_issues] == [("AccessControl", "withdraw")]
    assert not result.passed
    assert any("new issue introduced" in line for line in result.failure_feedback())


def test_preexisting_issues_elsewhere_do_not_block():
    # patch clears the target; an untouched sibling vulnerability remains
    original = _original("overflow_vuln.sol")
    patched = original.source_text.replace(
        "credits[user] += amount;",
        'require(credits[user] + amount >= credits[user], "overflow");\n'
        "        credits[user] += amount;",
    )
    result = verify_patch(original, _patch(patched),
                          _report(original, VulnClass.INTEGER_OVERFLOW, "grant"))
    assert result.target_vuln_cleared
    assert result.new_issues == []
    assert result.passed


# ---------------------------------------------------------------------------
# One lex per source
# ---------------------------------------------------------------------------

def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kwargs:
                        calls.append(args) or original(*args, **kwargs))
    return calls


def test_detect_lexes_each_source_once(monkeypatch):
    lexes = _count_calls(monkeypatch, ingest, "lex")
    sources = sorted(DETECTORS.glob("*.sol")) + sorted(EVAL_CASES.glob("case*.sol"))
    for path in sources:
        source = path.read_text()
        lexes.clear()
        detections = detect(source)
        assert len(lexes) == 1, path.name
        lexes.clear()
        assert detect(parse_source(source)) == detections
        assert len(lexes) == 1, path.name  # the parse above, none in detect


_SENDS_THEN = ('(bool ok, ) = msg.sender.call{value: 1}(""); require(ok); ')


@pytest.mark.parametrize("source, rules", [
    ("contract A { address owner;\n"
     "function setOwner(address owner) public { owner = owner; } }", []),
    ("contract A { address owner;\n"
     "function setOwner(address o) public { owner = o; } }",
     ["access-control/unguarded-owner-write"]),
    ("pragma solidity ^0.8.0; contract B { mapping(address => uint256) balances;\n"
     f"function f(uint256 balances) public {{ {_SENDS_THEN}balances = 0; }} }}", []),
    ("pragma solidity ^0.8.0; contract B { mapping(address => uint256) balances;\n"
     f"function f() public {{ {_SENDS_THEN}balances[msg.sender] = 0; }} }}",
     ["reentrancy/external-call-before-state-write"]),
    ("pragma solidity ^0.4.24; contract C { uint256 total;\n"
     "function f(uint256 total) public { total = total + 1; } }", []),
    ("pragma solidity ^0.4.24; contract C { uint256 total;\n"
     "function f() public { total = total + 1; } }",
     ["overflow/pre-0.8-unguarded-arith"]),
], ids=["owner-shadowed", "owner-written", "balances-shadowed", "balances-written",
        "total-shadowed", "total-written"])
def test_a_parameter_shadows_the_state_variable_it_names(source, rules):
    assert [d.rule_id for d in detect(source)] == rules


@pytest.mark.parametrize("body, rules", [
    ("require(a > 0); total = total + a;", ["overflow/pre-0.8-unguarded-arith"]),
    ("require(total + a >= total); total = total + a;", []),
    ("assert(total < 2 ** 128); total += a;", []),
    ("total = total + a; require(total > 0);", ["overflow/pre-0.8-unguarded-arith"]),
    ("total = total + a;", ["overflow/pre-0.8-unguarded-arith"]),
], ids=["unrelated-require", "require-on-total", "assert-on-total", "require-after",
        "no-guard"])
def test_a_guard_reads_the_state_variable_whose_arithmetic_it_guards(body, rules):
    # a require that reads only the parameter does not bound total + a
    source = ("pragma solidity ^0.4.24; contract C { uint256 total;\n"
              f"function f(uint256 a) public {{ {body} }} }}")
    assert [d.rule_id for d in detect(source)] == rules


def test_detection_lines_are_file_lines():
    # the function's text also appears earlier, in a comment and in
    # another contract; each finding is on its own function's line
    body = "function f() public { msg.sender.send(1); }"
    source = (f"// old version:\n// {body}\n"
              f"contract A {{\n  {body}\n}}\ncontract B {{\n\n  {body}\n}}\n")
    assert [(d.rule_id, d.line) for d in detect(source)] == [
        ("unchecked-call/result-unused", 4), ("unchecked-call/result-unused", 8)]


def test_verify_patch_parses_a_compiled_patch_once(monkeypatch):
    original = _original("reentrancy_vuln.sol")
    patched = (DETECTORS / "reentrancy_fixed.sol").read_text()
    report = _report(original, VulnClass.REENTRANCY, "withdraw")
    parses = _count_calls(monkeypatch, verify, "parse_source")
    result = verify_patch(original, _patch(patched), report)
    assert result.passed
    assert len(parses) == 1  # the patch's; the original's unit is reused


# ---------------------------------------------------------------------------
# Error contract: the compile check, detect and verify_patch never raise
# ---------------------------------------------------------------------------

@settings(max_examples=200)
@given(SOURCE)
def test_check_compiles_and_detect_never_raise(source):
    unit, diagnostics = check_compiles(source)
    assert unit is not None or diagnostics
    assert detect(source) == (detect(unit) if unit is not None else [])


_REENTRANT = _original("reentrancy_vuln.sol")
_REENTRANT_REPORT = _report(_REENTRANT, VulnClass.REENTRANCY, "withdraw")


@settings(max_examples=200)
@given(st.one_of(SOURCE, st.text()).filter(bool))
def test_verify_patch_never_raises(patched):
    result = verify_patch(_REENTRANT, _patch(patched), _REENTRANT_REPORT)
    assert result.compiled or not result.passed
    assert result.target_function == "withdraw"
