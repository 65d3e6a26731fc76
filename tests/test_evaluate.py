"""Batch evaluation: one load per entry, failure rows, and concurrent workers."""

import builtins
import json
import sys
import threading
from pathlib import Path

import pytest

from scpatcher import embedding, evaluate, ingest, repair, verify
from scpatcher.ingest import IngestError
from scpatcher.evaluate import DatasetManifest, ManifestEntry, load_manifest, run_dataset
from scpatcher.graph import load_kb
from scpatcher.llm import MockLlmBackend
from scpatcher.model import VulnClass
from scpatcher.repair import RepairConfig, retrieve

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


def test_a_sweep_reads_and_lexes_each_entry_once(kb, monkeypatch):
    """Every lex in a sweep is an entry file's, once, or a parsed patch's:
    queries are embedded from the entry's tokens, not lexed again."""
    graph, _, _ = kb
    manifest = load_manifest(str(EVAL_CASES / "manifest.json"))
    paths = {entry.resolved_path for entry in manifest.entries}
    texts = [Path(path).read_text(encoding="utf-8") for path in sorted(paths)]
    reads, lexes, patches = [], [], []

    def counting_open(file, *args, **kwargs):
        if str(file) in paths:
            reads.append(str(file))
        return builtins.open(file, *args, **kwargs)

    for module in (evaluate, ingest):  # every reader of an entry file
        monkeypatch.setattr(module, "open", counting_open, raising=False)
    original_lex, original_parse = ingest.lex, verify.parse_source
    for module in (ingest, embedding):  # every module that binds lex
        monkeypatch.setattr(module, "lex", lambda text, *args: (
            lexes.append(text) or original_lex(text, *args)))
    monkeypatch.setattr(verify, "parse_source", lambda text, *args: (
        patches.append(text) or original_parse(text, *args)))
    run_dataset(manifest, graph, _cfg(), k_values=[1, 3, 5])
    assert sorted(reads) == sorted(paths) and len(reads) == 6
    assert patches and sorted(lexes) == sorted(texts + patches)


def test_a_sweep_retrieves_once_per_entry_and_prompts_each_k_with_its_prefix(kb, monkeypatch):
    """One retrieval per kept entry, at the largest k; each k's prompts
    carry the references a retrieval at that k selects."""
    graph, _, _ = kb
    manifest = load_manifest(str(EVAL_CASES / "manifest.json"))
    retrievals, prompted = [], []
    original_retrieve = evaluate.retrieve
    monkeypatch.setattr(evaluate, "retrieve", lambda kb_, unit, fn, k: retrievals.append(
        (unit, fn, k)) or original_retrieve(kb_, unit, fn, k))
    original_prompt = repair.build_stage1_prompt
    monkeypatch.setattr(repair, "build_stage1_prompt", lambda fn, vuln_class, refs: prompted.append(
        (fn.id, refs)) or original_prompt(fn, vuln_class, refs))
    report = run_dataset(manifest, graph, _cfg(), k_values=[3, 1, 5])
    assert [k for _unit, _fn, k in retrievals] == [5] * report.kept_count == [5] * 6
    expected = [(fn.id, retrieve(graph, unit, fn, k).selected)
                for unit, fn, _ in retrievals for k in (3, 1, 5)]
    assert sorted(prompted, key=repr) == sorted(expected, key=repr)


def test_every_fixed_outcome_compiled_and_carries_a_patch(kb, monkeypatch):
    graph, _, _ = kb
    outcomes = []
    original = evaluate.compute_metrics
    monkeypatch.setattr(evaluate, "compute_metrics",
                        lambda batch: outcomes.extend(batch) or original(batch))
    run_dataset(load_manifest(str(EVAL_CASES / "manifest.json")), graph, _cfg(),
                k_values=[1, 3, 5])
    assert len(outcomes) == 18 and any(o.fixed for o in outcomes)
    assert not [o for o in outcomes if o.fixed and not o.compiled]
    assert not [o for o in outcomes if o.fixed and o.patch is None]


def test_unbalanced_entry_is_kept_and_fails_alike_at_every_k(kb, tmp_path, monkeypatch):
    graph, _, _ = kb
    broken = tmp_path / "broken.sol"
    broken.write_text("contract Broken { function f( ", encoding="utf-8")
    manifest = DatasetManifest(entries=[
        ManifestEntry("broken.sol", str(broken), VulnClass.REENTRANCY, "f")])
    outcomes = []
    original = evaluate.compute_metrics
    monkeypatch.setattr(evaluate, "compute_metrics",
                        lambda batch: outcomes.append(batch) or original(batch))
    report = run_dataset(manifest, graph, _cfg(), k_values=[1, 3, 5])
    assert report.kept_count == 1 and report.excluded == []
    assert [o.diagnostics for (o,) in outcomes] == \
        [(f"entry failed: {broken}: end of file: 1 unclosed brace(s)",)] * 3
    assert [[row.line() for row in k_report.rows] for k_report in report.k_reports] == \
        [["  failed        stage=-                 class=Reentrancy             "
          "function=f                    path=broken.sol"]] * 3


def test_non_utf8_entry_stops_a_deduplicated_run_before_any_repair(kb, tmp_path, monkeypatch):
    graph, _, _ = kb
    raw = b"contract Bad {\xff}"
    bad = tmp_path / "bad.sol"
    bad.write_bytes(raw)
    with pytest.raises(UnicodeDecodeError) as decode_error:
        raw.decode("utf-8")
    manifest = DatasetManifest(entries=[
        ManifestEntry("case2_reentrancy.sol", str(EVAL_CASES / "case2_reentrancy.sol"),
                      VulnClass.REENTRANCY, "withdraw"),
        ManifestEntry("bad.sol", str(bad), VulnClass.REENTRANCY, "f"),
    ])
    repairs = []
    monkeypatch.setattr(evaluate, "repair", lambda *args: repairs.append(args))
    with pytest.raises(IngestError) as err:
        run_dataset(manifest, graph, _cfg(), k_values=[1, 3, 5])
    assert err.value.code == "NonUtf8"
    assert str(err.value) == f"{bad}: {decode_error.value}"
    assert repairs == []


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
    report = run_dataset(manifest, graph, _cfg(), k_values=[1, 3, 5])
    assert report.kept_count == 2 and report.excluded == []
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


_GOOD_ENTRY = {"path": str(EVAL_CASES / "case2_reentrancy.sol"),
               "vuln_class": "Reentrancy", "function": "withdraw"}


@pytest.mark.parametrize("manifest, message", [
    ([_GOOD_ENTRY], "manifest must be a JSON object"),
    ({"entries": _GOOD_ENTRY}, '"entries" must be a list'),
    # a misspelt key loaded as an empty manifest, and evaluate exited 0
    ({"entires": [_GOOD_ENTRY]}, '"entries" must be a list'),
    ({"entries": [_GOOD_ENTRY, "case2_reentrancy.sol"]}, "entry 1: must be an object"),
    ({"entries": [_GOOD_ENTRY, {**_GOOD_ENTRY, "path": 7}]}, "entry 1: path must be a string"),
    ({"entries": [_GOOD_ENTRY, {**_GOOD_ENTRY, "function": 5}]},
     "entry 1: function must be a string"),
], ids=["top-level-list", "entries-object", "entries-missing", "entry-string", "path-number",
        "function-number"])
def test_load_manifest_rejects_malformed_shapes(tmp_path, manifest, message):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(ValueError) as err:
        load_manifest(str(path))
    assert str(err.value) == f"{path}: {message}"


def test_load_manifest_reads_an_empty_entries_list_as_an_empty_manifest(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text('{"entries": []}', encoding="utf-8")
    assert load_manifest(str(path)).entries == []



def test_load_manifest_rejects_a_manifest_nested_too_deeply(tmp_path):
    # json raises RecursionError here, which is no ValueError
    path = tmp_path / "manifest.json"
    path.write_text('{"entries": ' + "[" * 100_000 + "]" * 100_000 + "}", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        load_manifest(str(path))
    assert str(err.value) == f"{path}: manifest is nested too deeply"
