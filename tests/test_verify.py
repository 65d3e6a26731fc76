import json
import stat
from pathlib import Path

import pytest

from scpatcher.ingest import load_source
from scpatcher.model import PatchCandidate, RepairStage, VulnClass, VulnerabilityReport
from scpatcher.verify import (
    VerifierError,
    check_compiles,
    detect,
    external_compiler,
    verify_patch,
)

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


def _report(path, vuln_class):
    return VulnerabilityReport(contract_path=str(path), function_id="a" * 16,
                               vuln_class=vuln_class)


# ---------------------------------------------------------------------------
# Compile checking
# ---------------------------------------------------------------------------

def test_builtin_check_accepts_wellformed_source():
    ok, _ = check_compiles("pragma solidity ^0.8.0;\ncontract A { function f() public {} }")
    assert ok


def test_builtin_check_rejects_unbalanced_braces():
    ok, diags = check_compiles("contract A { function f() public {")
    assert not ok
    assert any("UnbalancedBraces" in d for d in diags)


def test_builtin_check_rejects_malformed_signature():
    ok, diags = check_compiles(MALFORMED)
    assert not ok
    assert any("MalformedDeclaration" in d for d in diags)


def test_builtin_check_requires_a_contract():
    ok, diags = check_compiles("uint256 x = 1;")
    assert not ok
    assert any("no contract declaration" in d for d in diags)


def test_external_compiler_success(tmp_path):
    script = tmp_path / "fakesolc"
    script.write_text("#!/bin/sh\nexit 0\n")
    script.chmod(script.stat().st_mode | stat.S_IXUSR)
    ok, _ = check_compiles("contract A {}", external_compiler(str(script)))
    assert ok


def test_external_compiler_failure_captures_output(tmp_path):
    script = tmp_path / "fakesolc"
    script.write_text("#!/bin/sh\necho 'TypeError: bad thing' >&2\nexit 1\n")
    script.chmod(script.stat().st_mode | stat.S_IXUSR)
    ok, diags = check_compiles("contract A {}", external_compiler(str(script)))
    assert not ok
    assert any("TypeError: bad thing" in d for d in diags)


def test_external_compiler_missing_binary(tmp_path):
    with pytest.raises(VerifierError) as err:
        check_compiles("contract A {}", external_compiler(str(tmp_path / "absent")))
    assert err.value.code == "CompilerNotFound"


def test_external_compiler_timeout(tmp_path):
    script = tmp_path / "fakesolc"
    script.write_text("#!/bin/sh\nsleep 5\n")
    script.chmod(script.stat().st_mode | stat.S_IXUSR)
    ok, diags = check_compiles("contract A {}",
                               external_compiler(str(script), timeout=0.3))
    assert not ok
    assert any("timed out" in d for d in diags)


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
    only_ts = detect(source, classes={VulnClass.TIMESTAMP_MANIPULATION})
    assert only_ts == []
    only_ac = detect(source, classes={VulnClass.ACCESS_CONTROL})
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


# ---------------------------------------------------------------------------
# Patch verification
# ---------------------------------------------------------------------------

def test_identity_patch_never_creates_new_issues():
    for vuln_class, (vuln_name, _, function) in PAIRS.items():
        source = (DETECTORS / vuln_name).read_text()
        result = verify_patch(source, _patch(source),
                              _report(vuln_name, vuln_class), target_name=function)
        assert result.compiled
        assert result.new_issues == []
        assert not result.target_vuln_cleared
        assert not result.passed
        assert any("still detected" in line for line in result.failure_feedback())


def test_fixed_variants_pass_verification():
    for vuln_class, (vuln_name, fixed_name, function) in PAIRS.items():
        original = (DETECTORS / vuln_name).read_text()
        patched = (DETECTORS / fixed_name).read_text()
        result = verify_patch(original, _patch(patched),
                              _report(vuln_name, vuln_class), target_name=function)
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
        result = verify_patch(unit.source_text, _patch(patch_path.read_text()), report)
        assert result.passed, (patch_path.name, result.failure_feedback())


def test_uncompilable_patch_fails_with_feedback():
    original = (DETECTORS / "reentrancy_vuln.sol").read_text()
    result = verify_patch(original, _patch("contract Broken { function f() {"),
                          _report("reentrancy_vuln.sol", VulnClass.REENTRANCY),
                          target_name="withdraw")
    assert not result.compiled
    assert not result.passed
    feedback = result.failure_feedback()
    assert feedback and all(line.startswith("patch failed to compile") for line in feedback)


def test_malformed_signature_patch_does_not_compile():
    original = (DETECTORS / "reentrancy_vuln.sol").read_text()
    result = verify_patch(original, _patch(MALFORMED),
                          _report("reentrancy_vuln.sol", VulnClass.REENTRANCY))
    assert not result.compiled
    assert any("MalformedDeclaration" in line for line in result.failure_feedback())


def test_new_issue_blocks_an_otherwise_clean_patch():
    original = (DETECTORS / "reentrancy_vuln.sol").read_text()
    # clears the reentrancy but authenticates with tx.origin
    patched = original.replace(
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
                          _report("reentrancy_vuln.sol", VulnClass.REENTRANCY),
                          target_name="withdraw")
    assert result.compiled
    assert result.target_vuln_cleared
    assert [d.key() for d in result.new_issues] == [("AccessControl", "withdraw")]
    assert not result.passed
    assert any("new issue introduced" in line for line in result.failure_feedback())


def test_preexisting_issues_elsewhere_do_not_block():
    # patch clears the target; an untouched sibling vulnerability remains
    original = (DETECTORS / "overflow_vuln.sol").read_text()
    patched = original.replace(
        "credits[user] += amount;",
        'require(credits[user] + amount >= credits[user], "overflow");\n'
        "        credits[user] += amount;",
    )
    result = verify_patch(original, _patch(patched),
                          _report("overflow_vuln.sol", VulnClass.INTEGER_OVERFLOW),
                          target_name="grant")
    assert result.target_vuln_cleared
    assert result.new_issues == []
    assert result.passed
