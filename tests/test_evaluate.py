"""Batch evaluation: one load per entry, failure rows, and concurrent workers."""

import sys
import threading
from pathlib import Path

from scpatcher import evaluate
from scpatcher.evaluate import DatasetManifest, ManifestEntry, load_manifest, run_dataset
from scpatcher.graph import load_kb
from scpatcher.llm import MockLlmBackend
from scpatcher.model import VulnClass
from scpatcher.repair import RepairConfig

FIXTURES = Path(__file__).parent / "fixtures"
EVAL_CASES = FIXTURES / "eval_cases"


def _cfg():
    return RepairConfig(backend=MockLlmBackend.from_script(str(EVAL_CASES / "mock_script_k.json")))


def test_each_entry_is_loaded_once_per_run(kb, monkeypatch):
    graph, _, _ = kb
    loads = []
    original = evaluate.load_source
    monkeypatch.setattr(evaluate, "load_source",
                        lambda path: loads.append(path) or original(path))
    manifest = load_manifest(str(EVAL_CASES / "manifest.json"))
    report = run_dataset(manifest, graph, _cfg(), k_values=[1, 3, 5])
    assert len(loads) == len(manifest.entries) == 6
    assert [k_report.k for k_report in report.k_reports] == [1, 3, 5]


def test_unloadable_entries_fail_alike_at_every_k(kb, tmp_path, monkeypatch):
    graph, _, _ = kb
    broken = tmp_path / "broken.sol"
    broken.write_text("contract Broken { function f( ", encoding="utf-8")
    case2 = str(EVAL_CASES / "case2_reentrancy.sol")
    manifest = DatasetManifest(entries=[
        ManifestEntry("broken.sol", str(broken), VulnClass.REENTRANCY, "f"),
        ManifestEntry("case2_reentrancy.sol", case2, VulnClass.REENTRANCY, "nothing"),
    ])
    outcomes = []
    original = evaluate.compute_metrics
    monkeypatch.setattr(evaluate, "compute_metrics",
                        lambda batch: outcomes.append(batch) or original(batch))
    report = run_dataset(manifest, graph, _cfg(), k_values=[1, 3, 5], dedup=False)
    assert len(outcomes) == 3
    assert outcomes[0] == outcomes[1] == outcomes[2]
    broken_outcome, missing_outcome = outcomes[0]
    assert broken_outcome.diagnostics[0].startswith("entry failed: ")
    assert missing_outcome.diagnostics == (
        "function 'nothing' not found in case2_reentrancy.sol",)
    for k_report in report.k_reports:
        assert [(row.stage, row.compiled, row.fixed) for row in k_report.rows] == \
            [("-", False, False)] * 2


def test_concurrent_workers_share_a_fresh_kb(kb, kb_file):
    """Eight workers all miss the KB's index cache at once; results must not change."""
    manifest = load_manifest(str(EVAL_CASES / "manifest.json"))
    expected = run_dataset(manifest, kb[0], _cfg(), k_values=[1, 3, 5]).render()

    fresh, _ = load_kb(kb_file)  # nobody has queried it yet
    result = {}

    def work():
        result["report"] = run_dataset(manifest, fresh, _cfg(), k_values=[1, 3, 5], jobs=8)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        worker = threading.Thread(target=work, daemon=True)
        worker.start()
        worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not worker.is_alive()
    assert result["report"].render() == expected
