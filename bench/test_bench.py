"""Tests of the benchmark's own code: input generator, checks, span arithmetic.

Run from the repository root: ``python -m pytest -q bench``.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import generate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from scpatcher.embedding import HashingEmbedder  # noqa: E402
from scpatcher.evaluate import DatasetManifest, dedup_against_kb, load_manifest, run_dataset  # noqa: E402
from scpatcher.graph import build_kb  # noqa: E402
from scpatcher.llm import MockLlmBackend  # noqa: E402
from scpatcher.repair import RepairConfig  # noqa: E402


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)  # fixture paths are relative to the checkout root


def tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_generator_is_deterministic_per_seed(tmp_path):
    generate.generate(tmp_path / "a", 7, corpus_copies=3, case_copies=2)
    generate.generate(tmp_path / "b", 7, corpus_copies=3, case_copies=2)
    generate.generate(tmp_path / "c", 8, corpus_copies=3, case_copies=2)
    a, b, c = (tree(tmp_path / name) for name in "abc")
    assert a == b
    assert a.keys() == c.keys()
    assert a != c


def test_generated_corpus_keeps_every_copy(tmp_path):
    inputs = generate.generate(tmp_path, 3, corpus_copies=4, case_copies=1)
    graph, clones, report = build_kb([str(p) for p in inputs.corpus_paths], HashingEmbedder(64))
    assert report.files_used == 40 and not report.duplicates_skipped and not report.files_failed
    assert report.function_count == 4 * generate.FUNCTIONS_PER_COPY
    # Padding never touches constructors, so the same functions stay below
    # the clone-token threshold as in the fixture corpus.
    fixture, _, _ = build_kb(sorted(str(p) for p in generate.CORPUS_DIR.glob("*.sol")),
                             HashingEmbedder(64))
    below = sorted(f.qualified_name.split("_")[0] + "." + f.name
                   for f in graph.functions() if f.token_count < clones.min_tokens)
    expected = sorted(f.qualified_name for f in fixture.functions() if f.token_count < 12)
    assert below == sorted(expected * 4)


def test_dedup_excludes_no_generated_case(tmp_path):
    inputs = generate.generate(tmp_path, 5, corpus_copies=2, case_copies=2)
    manifest = load_manifest(str(inputs.manifest_path))
    for corpus in (inputs.corpus_paths, sorted(generate.CORPUS_DIR.glob("*.sol"))):
        graph, _, _ = build_kb([str(p) for p in corpus], HashingEmbedder(64))
        kept, excluded = dedup_against_kb(manifest, graph)
        assert excluded == []
        assert len(kept) == inputs.case_count == 12


def test_renamed_cases_reproduce_golden_rows(tmp_path):
    inputs = generate.generate(tmp_path, 9, corpus_copies=0, case_copies=1)
    graph, _, _ = build_kb(sorted(str(p) for p in generate.CORPUS_DIR.glob("*.sol")),
                           HashingEmbedder(256))
    golden = run.golden_rows()
    for i, entry in enumerate(load_manifest(str(inputs.manifest_path)).entries):
        backend = MockLlmBackend.from_script(
            str(generate.mock_script_for(Path(entry.resolved_path))))
        report = run_dataset(DatasetManifest([entry]), graph, RepairConfig(backend=backend))
        row = report.k_reports[0].rows[0]
        assert (row.stage, row.compiled, row.fixed) == golden[i % 6], entry.path


def test_rename_skips_members_and_strings():
    text = 'contract A { uint256 value; function f() { value = msg.value; require(x, "value"); } }'
    renamed = generate.rename(text, ["A", "value"], "_s")
    assert renamed == ('contract A_s { uint256 value_s; function f() '
                       '{ value_s = msg.value; require(x, "value"); } }')


def test_self_time_on_hand_built_tree():
    tree_spans = [
        spans.Span("root", 0, 100),
        spans.Span("a", 10, 30, parent=0),
        spans.Span("b", 20, 50, parent=0),   # overlaps a
        spans.Span("c", 60, 70, parent=0),
        spans.Span("a.1", 12, 18, parent=1),
        spans.Span("d", 90, 120, parent=0),  # runs past its parent
    ]
    children = spans.children_of(tree_spans)
    assert spans.self_time(tree_spans, 0, children) == 100 - (40 + 10 + 10)
    assert spans.self_time(tree_spans, 1) == 20 - 6
    assert spans.self_time(tree_spans, 4) == 6


def test_tracer_wraps_and_restores():
    class Module:
        @staticmethod
        def work(x):
            return x * 2

    tracer = spans.Tracer()
    original = Module.work
    tracer.wrap(Module, "work", "m.work",
                on_result=lambda span, args, result: span.attrs.update(arg=args[0]))
    with tracer.span("outer"):
        assert Module.work(3) == 6
    tracer.restore()
    assert Module.work is original
    outer, inner = tracer.spans
    assert (inner.name, inner.parent, inner.root, inner.attrs) == ("m.work", 0, 0, {"arg": 3})
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_percentile_nearest_rank():
    values = list(range(1, 201))
    assert run.percentile(values, 95) == 190
    assert run.percentile(values, 50) == 100


def test_benchmark_json_matches_the_metrics_the_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER_MOVES)
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
