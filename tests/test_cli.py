"""End-to-end tests of the ``scpatcher`` command against the golden outputs."""

import shutil
from pathlib import Path

from scpatcher.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
EVAL_CASES = FIXTURES / "eval_cases"
GOLDEN = FIXTURES / "golden"

LOCATOR = f"{EVAL_CASES / 'case2_reentrancy.sol'}#EvalFaucet.withdraw"


def _evaluate(kb_file, report, script, *extra):
    return main(["evaluate", "--kb", str(kb_file),
                 "--manifest", str(EVAL_CASES / "manifest.json"),
                 "--report", str(report),
                 "--mock-script", str(EVAL_CASES / script), *extra])


def test_retrieve_matches_golden(kb_file, capsys):
    assert main(["retrieve", "--kb", str(kb_file), "--function", LOCATOR]) == 0
    assert capsys.readouterr().out == (GOLDEN / "retrieve_output.txt").read_text()


def test_retrieve_finds_a_file_under_a_directory_whose_name_holds_a_hash(
        kb_file, tmp_path, capsys):
    # the locator splits at its last '#': the path keeps every earlier one
    contract = tmp_path / "a#b" / "case2_reentrancy.sol"
    contract.parent.mkdir()
    shutil.copy(EVAL_CASES / "case2_reentrancy.sol", contract)
    assert main(["retrieve", "--kb", str(kb_file),
                 "--function", f"{contract}#EvalFaucet.withdraw"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "retrieve_output.txt").read_text()


def test_evaluate_matches_golden(kb_file, tmp_path):
    report = tmp_path / "report.txt"
    assert _evaluate(kb_file, report, "mock_script.json", "--k-sweep", "3") == 0
    assert report.read_text() == (GOLDEN / "evaluation_report.txt").read_text()


def test_k_sweep_report_is_independent_of_jobs(kb_file, tmp_path):
    reports = []
    for jobs in ("1", "4"):
        report = tmp_path / f"report_{jobs}.txt"
        assert _evaluate(kb_file, report, "mock_script_k.json",
                         "--k-sweep", "1,3,5", "--jobs", jobs) == 0
        reports.append(report.read_text())
    assert reports[0] == reports[1]
    assert [line for line in reports[0].splitlines() if line.startswith("[k=")] == \
        ["[k=1]", "[k=3]", "[k=5]"]


def test_exit_codes(kb_file, tmp_path, capsys):
    retrieve = ["retrieve", "--kb", str(kb_file), "--function"]
    # 1: usage errors, from argparse or from the command's own argument checks
    assert main([]) == 1
    assert main(["retrieve", "--kb", str(kb_file)]) == 1
    assert main(["evaluate", "--kb", str(kb_file), "--manifest", "m.json",
                 "--report", "r.txt", "--k-sweep", "0"]) == 1
    assert main(retrieve + ["nope"]) == 1
    assert main(retrieve + ["file.sol#Contract"]) == 1
    assert main(retrieve + [LOCATOR, "--k", "0"]) == 1
    # the pool size and epsilon are library constants, not options
    repair = ["repair", "--kb", str(kb_file),
              "--contract", str(EVAL_CASES / "case2_reentrancy.sol"),
              "--vuln", "Reentrancy", "--function", "withdraw",
              "--mock-script", str(EVAL_CASES / "mock_script.json")]
    for command in (retrieve + [LOCATOR], repair):
        for flag, value in (("--top-n", "5"), ("--epsilon", "1.0")):
            assert main(command + [flag, value]) == 1
            assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    # a dimension above 2**32 leaves buckets that a u32 cannot hold; it is
    # refused before the corpus is read
    for flag, value in (("--dimension", "0"), ("--dimension", "-5"),
                        ("--dimension", str(2 ** 32 + 1)), ("--dimension", "5000000000")):
        assert main(["build-kb", "--corpus", str(FIXTURES / "corpus"),
                     "--out", str(tmp_path / "unused.scpk"), flag, value]) == 1
    # the clone threshold is a library constant, not an option
    capsys.readouterr()
    assert main(["build-kb", "--corpus", str(FIXTURES / "corpus"),
                 "--out", str(tmp_path / "unused.scpk"), "--clone-min-tokens", "12"]) == 1
    assert "unrecognized arguments: --clone-min-tokens 12" in capsys.readouterr().err
    for value in ("0", "-4"):
        assert main(["evaluate", "--kb", str(kb_file),
                     "--manifest", str(EVAL_CASES / "manifest.json"),
                     "--report", str(tmp_path / "unused.txt"),
                     "--mock-script", str(EVAL_CASES / "mock_script.json"),
                     "--jobs", value]) == 1
    # corpus/test deduplication is always on, not an option
    assert main(["evaluate", "--kb", str(kb_file),
                 "--manifest", str(EVAL_CASES / "manifest.json"),
                 "--report", str(tmp_path / "unused.txt"),
                 "--mock-script", str(EVAL_CASES / "mock_script.json"), "--no-dedup"]) == 1
    assert "unrecognized arguments: --no-dedup" in capsys.readouterr().err
    assert not (tmp_path / "unused.scpk").exists() and not (tmp_path / "unused.txt").exists()
    assert main(["repair", "--kb", str(kb_file),
                 "--contract", str(EVAL_CASES / "case2_reentrancy.sol"),
                 "--vuln", "Reentrancy", "--function", "withdraw"]) == 1
    # 2: runtime failures
    assert main(["retrieve", "--kb", str(tmp_path / "missing.scpk"),
                 "--function", LOCATOR]) == 2
    assert main(retrieve + [f"{EVAL_CASES / 'case2_reentrancy.sol'}#EvalFaucet.nothing"]) == 2
    assert main(["repair", "--kb", str(kb_file),
                 "--contract", str(EVAL_CASES / "case2_reentrancy.sol"),
                 "--vuln", "Reentrancy", "--function", "nothing",
                 "--mock-script", str(EVAL_CASES / "mock_script.json")]) == 2
    # 0: success, and the patch is written where asked
    out = tmp_path / "patch.sol"
    assert main(["repair", "--kb", str(kb_file),
                 "--contract", str(EVAL_CASES / "case2_reentrancy.sol"),
                 "--vuln", "Reentrancy", "--function", "withdraw",
                 "--mock-script", str(EVAL_CASES / "mock_script.json"),
                 "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "stage: knowledge-guided\ncompiled: yes\nfixed: yes\n" in printed
    assert "contract EvalFaucet" in out.read_text()
