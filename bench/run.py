"""Benchmark of the scpatcher pipeline: knowledge-base build and repair.

Run from the repository root:

    python3 bench/run.py --workload repair-large-kb --seed 1 --seconds 40 --trace 0

Workloads (one process, one thread, closed loop: each repair starts when the
previous one returns; the LLM is always the scripted mock backend). Setup
builds the workload's KB and warms up. The timed part runs in rounds: a round
builds a fresh KB from the same corpus (``build_kb``, then three ``save_kb``
and three ``load_kb``) for the write-path metrics, then repairs every
generated case once at each k in (1, 3, 5) against the setup KB. Each repair
is one ``evaluate.run_dataset`` call on a one-entry manifest at one k.

``repair-large-kb``
    KB from a seeded 1,000-file corpus (2,800 functions): the write path at
    scale, and the read path where index build and kNN dominate a repair.
``repair-small-kb``
    KB from the ten fixture files (28 functions), ten builds per round: the
    control for retrieval work, where verify, parsing and prompting dominate.

Inputs are generated once per run. Setup (loading the cases, the KB
build/save/load and one warm-up repair per case template) runs at least three
times and for at least a second; its median is ``setup_s``.

Every output is checked: corpus function counts, no failed or duplicate
files, byte-identical repeated saves, loaded KB equal to the built one, each
case's (stage, compiled, fixed) equal to its template's row in the golden
evaluation report, and the unrenamed six-case manifest rendering that golden
report byte for byte. A failed check counts in ``failed`` and makes the exit
code 1.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` first runs the
untraced measurement for half the time, then installs ``spans.Tracer``
wrappers around the module attributes the pipeline calls through, measures
the other half, and prints the per-layer metrics listed in
``PER_LAYER_MOVES`` plus the tracing overhead. The spans are written to
``.bench_work/spans/<workload>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import re
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path
from types import SimpleNamespace
from typing import Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

import generate  # noqa: E402
import spans as tracing  # noqa: E402

CORPUS_COPIES = 100
CASE_COPIES = 12
K_SWEEP = (1, 3, 5)
WARMUP_K = 3
DIMENSION = 256
SETUP_REPS = 3           # set up at least this often ...
SETUP_MIN_SECONDS = 1.0  # ... and for at least this long; setup_s is the median
SAVE_LOAD_REPS = 3  # saves and loads per build; all saves must be byte-identical


@dataclasses.dataclass(frozen=True)
class Workload:
    corpus_copies: int       # 0: the ten fixture files as they are
    builds_per_round: int


# One round repairs 216 cases, so every run has >= 200 timed repairs.
WORKLOADS = {
    "repair-large-kb": Workload(CORPUS_COPIES, builds_per_round=1),
    "repair-small-kb": Workload(0, builds_per_round=10),
}
WORK_ROOT = Path(".bench_work")

#: Per-layer metric -> (end-to-end metric, workload) it should move; an
#: empty target marks a recorded input property or a guard ratio.
PER_LAYER_MOVES = {
    "ingest.lex_calls_per_file": ("build_s", "repair-large-kb"),
    "ingest.lex_s": ("build_s", "repair-large-kb"),
    "ingest.load_source_s": ("build_s", "repair-large-kb"),
    "ingest.hash_s": ("build_s", "repair-large-kb"),
    "ingest.triples_s": ("build_s", "repair-large-kb"),
    "ingest.parse_calls_per_repair": ("repair_p50_ms", "repair-small-kb"),
    "ingest.parse_ms_per_repair": ("repair_p50_ms", "repair-small-kb"),
    "graph.build_graph_s": ("build_s", "repair-large-kb"),
    "graph.clones_s": ("build_s", "repair-large-kb"),
    "graph.guf_s": ("build_s", "repair-large-kb"),
    "graph.clone_share": ("", "input property"),
    "graph.kb_bytes": ("kb_load_s", "repair-large-kb"),
    "embedding.embed_calls": ("build_s", "repair-large-kb"),
    "embedding.embed_s": ("build_s", "repair-large-kb"),
    "embedding.index_builds_per_repair": ("repair_p50_ms", "repair-large-kb"),
    "embedding.index_ms": ("repair_p50_ms", "repair-large-kb"),
    "embedding.knn_ms": ("repair_p50_ms", "repair-large-kb"),
    "embedding.knn_scanned": ("repair_p50_ms", "repair-large-kb"),
    "embedding.query_embed_ms": ("repair_p50_ms", "repair-large-kb"),
    "embedding.retrieval_share": ("repair_p50_ms", "repair-large-kb"),
    "rerank.rerank_ms": ("repair_p50_ms", "repair-large-kb"),
    "rerank.fallback_frac": ("", "guard ratio"),
    "rerank.kept_frac": ("", "guard ratio"),
    "repair.prompt_ms": ("repair_p50_ms", "repair-small-kb"),
    "repair.attempts_per_repair": ("repair_p95_ms", "repair-*"),
    "repair.stage2_frac": ("repair_p95_ms", "repair-*"),
    "repair.self_ms": ("repair_p50_ms", "repair-small-kb"),
    "llm.complete_ms": ("repair_p50_ms", "repair-small-kb"),
    "verify.verify_ms": ("repair_p50_ms", "repair-small-kb"),
    "verify.check_compiles_ms": ("repair_p50_ms", "repair-small-kb"),
    "verify.detect_ms": ("repair_p50_ms", "repair-small-kb"),
    "verify.detect_calls_per_attempt": ("repair_p50_ms", "repair-small-kb"),
    "verify.pass_frac": ("", "guard ratio"),
    "evaluate.dedup_ms": ("repair_p50_ms", "repair-small-kb"),
    "evaluate.self_ms": ("repair_p50_ms", "repair-small-kb"),
    "trace.overhead_frac": ("", "tracing cost"),
}

_ROW_RE = re.compile(r"^\s+(fixed|compiled-only|failed)\s+stage=(\S+)\s.*\spath=(\S+)$")


class SetupError(Exception):
    """The checkout lacks what the benchmark needs; no result is printed."""


def import_pipeline():
    """Import ``scpatcher`` from ``./src`` of the current checkout."""
    src = Path("src").resolve()
    if not (src / "scpatcher" / "__init__.py").is_file():
        raise SetupError("no src/scpatcher here; run from the repository root")
    if not generate.CORPUS_DIR.is_dir() or not generate.GOLDEN_REPORT.is_file():
        raise SetupError(f"missing fixtures under {generate.FIXTURES}")
    sys.path.insert(0, str(src))
    import scpatcher
    if not Path(scpatcher.__file__).resolve().is_relative_to(src):
        raise SetupError(f"scpatcher imported from {scpatcher.__file__}, not {src}")
    from scpatcher import embedding, evaluate, graph, ingest, llm, repair, rerank, verify
    return SimpleNamespace(embedding=embedding, evaluate=evaluate, graph=graph, ingest=ingest,
                           llm=llm, repair=repair, rerank=rerank, verify=verify)


def golden_rows() -> dict[int, tuple[str, bool, bool]]:
    """Fixture template index -> (stage, compiled, fixed) from the golden report."""
    order = [item["path"] for item in json.loads(
        (generate.CASES_DIR / "manifest.json").read_text(encoding="utf-8"))["entries"]]
    rows = {}
    for line in generate.GOLDEN_REPORT.read_text(encoding="utf-8").splitlines():
        match = _ROW_RE.match(line)
        if match:
            status, stage, path = match.groups()
            rows[order.index(path)] = (stage, status != "failed", status == "fixed")
    return rows


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q / 100) - 1)]


@dataclasses.dataclass
class Case:
    manifest: object  # one-entry evaluate.DatasetManifest
    template: int
    backend: object


class Bench:
    def __init__(self, pipeline, workload: str, seed: int, work: Path):
        self.p = pipeline
        self.workload = workload
        self.w = WORKLOADS[workload]
        self.seed = seed
        self.work = work
        self.tracer: Optional[tracing.Tracer] = None
        self.golden = golden_rows()
        self.attempted = 0
        self.failures: list[str] = []
        self.inputs: dict = {}

    # -- checks -------------------------------------------------------------

    def check(self, ok: bool, message: str) -> bool:
        if not ok:
            self.failures.append(message)
        return ok

    def span(self, name: str, **attrs):
        return self.tracer.span(name, **attrs) if self.tracer else nullcontext()

    # -- pieces -------------------------------------------------------------

    def embedder(self):
        embedder = self.p.embedding.HashingEmbedder(DIMENSION)
        if self.tracer:
            self.tracer.wrap(embedder, "embed", "embedding.embed", restore=False)
        return embedder

    def build_save_load(self, paths: list[Path], out: Path, round_: int,
                        reps: int = SAVE_LOAD_REPS) -> tuple[object, dict]:
        """Build once, save and load ``reps`` times, check everything; return
        (last loaded KB, lists of seconds per step)."""
        graph_mod = self.p.graph
        strs = [str(path) for path in paths]
        kb_paths = [str(out / f"kb-{i}.scpk") for i in range(reps)]
        embedder = self.embedder()
        times: dict = {"build_s": [], "kb_save_s": [], "kb_load_s": []}
        gc.collect()
        with self.span("bench.build", round=round_):
            t0 = time.perf_counter()
            graph, clones, report = graph_mod.build_kb(strs, embedder)
            times["build_s"].append(time.perf_counter() - t0)
            for kb_path in kb_paths:
                t0 = time.perf_counter()
                graph_mod.save_kb(graph, clones, kb_path)
                times["kb_save_s"].append(time.perf_counter() - t0)
            for kb_path in kb_paths:
                loaded = loaded_clones = None  # hold one loaded KB at a time, as a user would
                t0 = time.perf_counter()
                loaded, loaded_clones = graph_mod.load_kb(kb_path)
                times["kb_load_s"].append(time.perf_counter() - t0)
        self.attempted += len(strs)
        expected = generate.FUNCTIONS_PER_COPY * len(strs) // 10
        self.check(report.function_count == expected,
                   f"{report.function_count} functions, expected {expected}")
        for path in report.files_failed + report.duplicates_skipped:
            self.failures.append(f"file failed or skipped as a duplicate: {path}")
        blobs = {Path(kb_path).read_bytes() for kb_path in kb_paths}
        self.check(len(blobs) == 1, "repeated saves of one KB differ")
        self.check(loaded == graph and loaded_clones == clones, "loaded KB differs from built")
        multi = sum(len(m) for m in clones.multi_member_groups().values())
        groups = [len(m) for m in clones.groups.values()]
        self.inputs.update({
            "files": len(strs),
            "functions": report.function_count,
            "graph.clone_share": multi / max(report.function_count, 1),
            "mean_clone_group_size": statistics.fmean(groups) if groups else 0.0,
            "kb_bytes": len(blobs.pop()),
        })
        return loaded, times

    def load_cases(self, manifest_path: Path) -> list[Case]:
        evaluate = self.p.evaluate
        manifest = evaluate.load_manifest(str(manifest_path))
        cases = []
        for i, entry in enumerate(manifest.entries):
            backend = self.p.llm.MockLlmBackend.from_script(
                str(generate.mock_script_for(Path(entry.resolved_path))))
            if self.tracer:
                self.tracer.wrap(backend, "complete", "llm.complete", restore=False)
            cases.append(Case(evaluate.DatasetManifest(entries=[entry]), i % 6, backend))
        return cases

    def repair(self, case: Case, kb, k: int, round_: int) -> int:
        """One timed repair; returns nanoseconds. Checks the outcome."""
        cfg = self.p.repair.RepairConfig(backend=case.backend)
        with self.span("bench.repair", round=round_, k=k):
            t0 = time.perf_counter_ns()
            report = self.p.evaluate.run_dataset(case.manifest, kb, cfg, k_values=[k])
            elapsed = time.perf_counter_ns() - t0
        self.attempted += 1
        entry = case.manifest.entries[0]
        rows = report.k_reports[0].rows if report.k_reports else []
        got = (rows[0].stage, rows[0].compiled, rows[0].fixed) if len(rows) == 1 else None
        self.check(report.kept_count == 1 and got == self.golden[case.template],
                   f"{entry.path} k={k}: got {got}, kept {report.kept_count}, "
                   f"expected {self.golden[case.template]}")
        return elapsed

    def golden_report_check(self) -> None:
        """The unrenamed fixture manifest at k=3 renders the golden report."""
        p = self.p
        corpus = sorted(str(path) for path in generate.CORPUS_DIR.glob("*.sol"))
        graph, _clones, _report = p.graph.build_kb(corpus, p.embedding.HashingEmbedder(DIMENSION))
        manifest = p.evaluate.load_manifest(str(generate.CASES_DIR / "manifest.json"))
        backend = p.llm.MockLlmBackend.from_script(str(generate.CASES_DIR / "mock_script.json"))
        report = p.evaluate.run_dataset(manifest, graph, p.repair.RepairConfig(backend=backend),
                                        k_values=[3])
        self.check(report.render() == generate.GOLDEN_REPORT.read_text(encoding="utf-8"),
                   "six-case fixture report differs from the golden file")

    # -- workloads ------------------------------------------------------------

    def setup(self, inputs: generate.Inputs) -> dict:
        """The program's set-up: load the cases, build, save and load the KB,
        and warm up with one repair per case template."""
        state = {"corpus": inputs.corpus_paths or sorted(generate.CORPUS_DIR.glob("*.sol")),
                 "cases": self.load_cases(inputs.manifest_path)}
        state["kb"], _ = self.build_save_load(state["corpus"], self.work, -1, reps=1)
        for case in state["cases"][:6]:
            self.repair(case, state["kb"], WARMUP_K, -1)
        return state

    def measure(self, state: dict, budget: float) -> dict:
        """Timed rounds until ``budget`` seconds have passed; raw samples.

        A round builds, saves and loads the corpus KB ``builds_per_round``
        times, then repairs every case at each k against the setup KB.
        """
        w = self.w
        samples: dict = {"repairs": [], "wall": 0.0, "build_s": [], "kb_save_s": [], "kb_load_s": []}
        start = time.perf_counter()
        round_ = 0
        while round_ == 0 or time.perf_counter() - start < budget:
            for _ in range(w.builds_per_round):
                _, times = self.build_save_load(state["corpus"], self.work, round_)
                for name, values in times.items():
                    samples[name].extend(values)
            gc.collect()
            sweep_start = time.perf_counter()
            samples["repairs"].extend(self.repair(case, state["kb"], k, round_)
                                      for case in state["cases"] for k in K_SWEEP)
            samples["wall"] += time.perf_counter() - sweep_start
            round_ += 1
        return samples

    def end_to_end(self, samples: dict) -> dict:
        repairs_ms = [ns / 1e6 for ns in samples["repairs"]]
        out = {name: statistics.median(samples[name])
               for name in ("build_s", "kb_save_s", "kb_load_s")}
        out.update({
            "repair_p50_ms": statistics.median(repairs_ms),
            "repair_p95_ms": percentile(repairs_ms, 95),
            "repairs_per_s": len(repairs_ms) / samples["wall"],
        })
        self.inputs.setdefault("repairs_timed", len(repairs_ms))  # untraced counts
        self.inputs.setdefault("builds_timed", len(samples["build_s"]))
        return out

    def run(self, seconds: float, trace: bool) -> dict:
        # Generating the inputs is file I/O of the benchmark's own, so it is
        # done once and kept out of setup_s, which times only program calls.
        inputs = generate.generate(self.work / "inputs", self.seed, self.w.corpus_copies,
                                   CASE_COPIES)
        self.inputs.update({"cases": inputs.case_count, "k_values": list(K_SWEEP)})
        setup_times: list[float] = []
        state: dict = {}
        while len(setup_times) < SETUP_REPS or sum(setup_times) < SETUP_MIN_SECONDS:
            state = {}  # let the previous KB go before building the next
            gc.collect()
            t0 = time.perf_counter()
            state = self.setup(inputs)
            setup_times.append(time.perf_counter() - t0)
        budget = seconds / 2 if trace else seconds
        samples = self.measure(state, budget)
        metrics = self.end_to_end(samples)
        metrics["setup_s"] = statistics.median(setup_times)
        if not trace:
            metrics["peak_rss_mb"] = peak_rss_mb()
            return metrics
        state = {}
        return self.traced(inputs, budget, metrics)

    def traced(self, inputs: generate.Inputs, budget: float, untraced: dict) -> dict:
        self.tracer = tracing.Tracer()
        install(self.tracer, self.p)
        try:
            samples = self.measure(self.setup(inputs), budget)
        finally:
            self.tracer.restore()
        traced_e2e = self.end_to_end(samples)
        metrics = layer_metrics(self.tracer, self.check)
        metrics["graph.clone_share"] = self.inputs["graph.clone_share"]
        metrics["graph.kb_bytes"] = self.inputs["kb_bytes"]
        metrics["trace.overhead_frac"] = traced_e2e["repair_p50_ms"] / untraced["repair_p50_ms"] - 1.0
        spans_dir = WORK_ROOT / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        self.tracer.write(spans_dir / f"{self.workload}.jsonl")
        return metrics


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def install(tracer: tracing.Tracer, p) -> None:
    """Wrap the module attributes the pipeline looks up at call time."""
    wrap = tracer.wrap
    wrap(p.ingest, "lex", "ingest.lex")
    wrap(p.embedding, "lex", "ingest.lex")
    wrap(p.ingest, "parse_source", "ingest.parse_source")
    wrap(p.verify, "parse_source", "ingest.parse_source")
    wrap(p.graph, "load_source", "ingest.load_source")
    wrap(p.evaluate, "load_source", "ingest.load_source")
    wrap(p.graph, "canonical_source_hash", "ingest.canonical_source_hash")
    wrap(p.evaluate, "canonical_source_hash", "ingest.canonical_source_hash")
    wrap(p.graph, "extract_triples_with_diagnostics", "ingest.extract_triples")
    wrap(p.graph, "build_kb", "graph.build_kb",
         on_result=lambda span, args, result: span.attrs.update(files=result[2].files_seen))
    wrap(p.graph, "build_graph", "graph.build_graph")
    wrap(p.graph, "assign_clone_groups", "graph.assign_clone_groups")
    wrap(p.graph, "compute_guf", "graph.compute_guf")
    wrap(p.repair, "provider_from_meta", "embedding.provider_from_meta",
         on_result=lambda span, args, provider: tracer.wrap(
             provider, "embed", "embedding.query_embed", restore=False))
    wrap(p.repair, "index_from_graph", "embedding.index_from_graph")
    wrap(p.repair, "knn", "embedding.knn",
         on_result=lambda span, args, result: span.attrs.update(scanned=len(args[0])))
    wrap(p.repair, "rerank", "rerank.rerank")
    wrap(p.rerank, "filter_syntactic", "rerank.filter_syntactic",
         on_result=lambda span, args, result: span.attrs.update(
             pool=len(args[0]), fallback=result[1], kept=0 if result[1] else len(result[0])))
    wrap(p.repair, "build_stage1_prompt", "repair.stage1_prompt")
    wrap(p.repair, "build_cot_prompt", "repair.cot_prompt")
    wrap(p.repair, "generate", "repair.generate")
    wrap(p.evaluate, "repair", "repair.repair")
    wrap(p.repair, "verify_patch", "verify.verify_patch",
         on_result=lambda span, args, result: span.attrs.update(
             compiled=result.compiled, passed=result.passed))
    wrap(p.verify, "check_compiles", "verify.check_compiles")
    wrap(p.verify, "detect", "verify.detect")
    wrap(p.evaluate, "dedup_against_kb", "evaluate.dedup_against_kb")
    wrap(p.evaluate, "run_dataset", "evaluate.run_dataset")


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _build_counts(group: list[tracing.Span]) -> dict:
    files = sum(s.attrs["files"] for s in tracing.named(group, "graph.build_kb"))

    def seconds(name: str) -> float:
        return sum(s.duration for s in tracing.named(group, name)) / 1e9

    return {
        "ingest.lex_calls_per_file": len(tracing.named(group, "ingest.lex")) / files,
        "ingest.lex_s": seconds("ingest.lex"),
        "ingest.load_source_s": seconds("ingest.load_source"),
        "ingest.hash_s": seconds("ingest.canonical_source_hash"),
        "ingest.triples_s": seconds("ingest.extract_triples"),
        "graph.build_graph_s": seconds("graph.build_graph"),
        "graph.clones_s": seconds("graph.assign_clone_groups"),
        "graph.guf_s": seconds("graph.compute_guf"),
        "embedding.embed_calls": len(tracing.named(group, "embedding.embed")),
        "embedding.embed_s": seconds("embedding.embed"),
    }


def _repair_counts(groups: list[list[tracing.Span]]) -> dict:
    """Count ratios over a set of repairs (one span group per repair); each
    must repeat exactly between the sweeps of a run, as must lex calls per
    file between its builds."""
    flat = [s for group in groups for s in group]
    attempts = tracing.named(flat, "verify.verify_patch")
    return {
        "embedding.index_builds_per_repair":
            len(tracing.named(flat, "embedding.index_from_graph")) / len(groups),
        "verify.detect_calls_per_attempt": len(tracing.named(flat, "verify.detect"))
            / max(1, sum(1 for s in attempts if s.attrs["compiled"])),
        "repair.attempts_per_repair": len(tracing.named(flat, "repair.generate")) / len(groups),
    }


def layer_metrics(tracer: tracing.Tracer, check) -> dict:
    """Per-layer metrics from the recorded spans; checks exact counts."""
    spans = tracer.spans
    children = tracing.children_of(spans)
    out: dict = {}

    builds = [_build_counts(g) for g in tracing.by_root(spans, "bench.build").values()]
    for name in builds[0]:
        out[name] = _median(b[name] for b in builds)
    check(len({b["ingest.lex_calls_per_file"] for b in builds}) == 1,
          f"lex calls per file differ between builds: {[b['ingest.lex_calls_per_file'] for b in builds]}")

    rounds: dict[int, list[list[tracing.Span]]] = {}
    for root, group in tracing.by_root(spans, "bench.repair").items():
        if spans[root].attrs["round"] >= 0:  # warm-up repairs are not measured
            rounds.setdefault(spans[root].attrs["round"], []).append(group)
    per_round = [_repair_counts(groups) for groups in rounds.values()]
    for name in per_round[0]:
        check(len({r[name] for r in per_round}) == 1,
              f"{name} differs between sweeps: {[r[name] for r in per_round]}")
    repairs = [group for groups in rounds.values() for group in groups]
    out.update(_repair_counts(repairs))
    flat = [s for group in repairs for s in group]

    def per_call_ms(name: str) -> float:
        return _median(s.duration for s in tracing.named(flat, name)) / 1e6

    def per_repair_ms(select) -> float:
        return _median(sum(s.duration for s in group if select(s)) for group in repairs) / 1e6

    measured = {group[0].root for group in repairs}

    def self_ms(name: str) -> float:
        return _median(tracing.self_time(spans, i, children) for i, s in enumerate(spans)
                       if s.name == name and s.root in measured) / 1e6

    knn = tracing.named(flat, "embedding.knn")
    filters = tracing.named(flat, "rerank.filter_syntactic")
    attempts = tracing.named(flat, "verify.verify_patch")
    parses = tracing.named(flat, "ingest.parse_source")
    retrieval = sum(s.duration for s in flat
                    if s.name in ("embedding.index_from_graph", "embedding.knn"))
    out.update({
        "ingest.parse_calls_per_repair": len(parses) / len(repairs),
        "ingest.parse_ms_per_repair": per_repair_ms(lambda s: s.name == "ingest.parse_source"),
        "embedding.index_ms": per_call_ms("embedding.index_from_graph"),
        "embedding.knn_ms": per_call_ms("embedding.knn"),
        "embedding.knn_scanned": statistics.fmean(s.attrs["scanned"] for s in knn),
        "embedding.query_embed_ms": per_call_ms("embedding.query_embed"),
        "embedding.retrieval_share": retrieval / sum(spans[g[0].root].duration for g in repairs),
        "rerank.rerank_ms": per_call_ms("rerank.rerank"),
        "rerank.fallback_frac": statistics.fmean(s.attrs["fallback"] for s in filters),
        "rerank.kept_frac": sum(s.attrs["kept"] for s in filters)
                            / sum(s.attrs["pool"] for s in filters),
        "repair.prompt_ms": per_repair_ms(
            lambda s: s.name == "repair.cot_prompt" or (
                s.name == "repair.stage1_prompt"
                and spans[s.parent].name != "repair.cot_prompt")),
        "repair.stage2_frac": sum(1 for group in repairs
                                  if tracing.named(group, "repair.cot_prompt")) / len(repairs),
        "repair.self_ms": self_ms("repair.repair"),
        "llm.complete_ms": per_call_ms("llm.complete"),
        "verify.verify_ms": per_call_ms("verify.verify_patch"),
        "verify.check_compiles_ms": per_call_ms("verify.check_compiles"),
        "verify.detect_ms": per_call_ms("verify.detect"),
        "verify.pass_frac": statistics.fmean(s.attrs["passed"] for s in attempts),
        "evaluate.dedup_ms": per_call_ms("evaluate.dedup_against_kb"),
        "evaluate.self_ms": self_ms("evaluate.run_dataset"),
    })
    return out


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
        pipeline = import_pipeline()
    except (SetupError, OSError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    bench = Bench(pipeline, args.workload, args.seed, work)
    try:
        values = bench.run(args.seconds, bool(args.trace))
        bench.golden_report_check()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    bench.check(set(values) == set(units),
                f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    for message in bench.failures[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "inputs": bench.inputs}))
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items() if name in values},
    }))
    return 0 if not bench.failures else 1


if __name__ == "__main__":
    sys.exit(main())
