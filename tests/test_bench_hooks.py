"""The benchmark's traced run wraps pipeline functions by module and name.

Renaming or removing one of them breaks ``bench/run.py --trace 1``, and a
pipeline call that moves off a wrapped name makes its per-layer metric read
0; these tests make both a test failure instead.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import run  # noqa: E402
import spans  # noqa: E402


def test_trace_hooks_install_and_restore(monkeypatch):
    monkeypatch.chdir(ROOT)  # import_pipeline reads ./src and the fixtures
    pipeline = run.import_pipeline()
    originals = {name: dict(vars(module)) for name, module in vars(pipeline).items()}
    tracer = spans.Tracer()
    run.install(tracer, pipeline)
    try:
        assert pipeline.repair.knn is not originals["repair"]["knn"]
    finally:
        tracer.restore()
    for name, module in vars(pipeline).items():
        assert {k: v for k, v in vars(module).items() if k in originals[name]} == originals[name]


#: Every span name ``run.layer_metrics`` (with ``_build_counts`` and
#: ``_repair_counts``) reads. A name no traced call records makes its metric
#: read 0 instead of failing.
LAYER_SPANS = (
    "graph.build_kb", "ingest.lex", "ingest.load_source", "ingest.canonical_source_hash",
    "ingest.extract_triples", "graph.build_graph", "graph.assign_clone_groups",
    "graph.compute_guf", "embedding.embed", "embedding.index_from_graph", "embedding.knn",
    "embedding.query_embed", "ingest.parse_source", "rerank.rerank",
    "rerank.filter_syntactic", "repair.stage1_prompt", "repair.cot_prompt",
    "repair.generate", "repair.repair", "llm.complete", "verify.verify_patch",
    "verify.check_compiles", "verify.detect", "evaluate.dedup_against_kb",
    "evaluate.run_dataset",
)


def test_traced_repairs_record_every_span_the_layer_metrics_read(monkeypatch, tmp_path):
    monkeypatch.chdir(ROOT)
    pipeline = run.import_pipeline()
    bench = run.Bench(pipeline, "repair-small-kb", 7, tmp_path)
    inputs = run.generate.generate(tmp_path / "inputs", 7, corpus_copies=0, case_copies=1)
    bench.tracer = spans.Tracer()
    run.install(bench.tracer, pipeline)
    try:
        # wraps each case's mock backend and the build's embedder, as the traced run does
        cases = bench.load_cases(inputs.manifest_path)
        corpus = sorted(run.generate.CORPUS_DIR.glob("*.sol"))
        kb, _times = bench.build_save_load(corpus, tmp_path, 0, reps=1)
        for case in cases:
            bench.repair(case, kb, 3, 0)
    finally:
        bench.tracer.restore()
    assert len(cases) == 6
    assert bench.failures == []
    recorded = {span.name for span in bench.tracer.spans}
    assert [name for name in LAYER_SPANS if name not in recorded] == []
    # one build and one load: load_kb makes its graph and derives its clone
    # groups and gufs without the three build stages' names, so they time
    # the build alone
    names = [span.name for span in bench.tracer.spans]
    assert [names.count("graph.build_kb"), names.count("graph.build_graph"),
            names.count("graph.assign_clone_groups"),
            names.count("graph.compute_guf")] == [1, 1, 1, 1]
