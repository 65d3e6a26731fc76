"""Dataset manifests and batch evaluation over a knowledge base.

A manifest lists vulnerable contracts with their class and function. Before
running, entries whose canonical source hash already appears in the KB are
excluded (train/test hygiene). Each kept entry is read and parsed once, then
goes through the full repair pipeline once per requested k; the resulting
report renders to a stable text format suitable for golden-file comparison.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Union

from .graph import PropertyGraph
from .ingest import IngestError, SourceUnit, canonical_source_hash, load_source
from .metrics import MetricsReport, compute_metrics
from .model import RepairOutcome, VulnClass, VulnerabilityReport
from .repair import RepairConfig, repair

log = logging.getLogger(__name__)

REPORT_FORMAT_VERSION = 1


@dataclass(frozen=True)
class ManifestEntry:
    path: str            # as written in the manifest (report-stable)
    resolved_path: str   # absolute, for reading
    vuln_class: VulnClass
    function_name: str
    line_hint: Optional[int] = None


@dataclass
class DatasetManifest:
    entries: list[ManifestEntry]
    notes: list[str] = field(default_factory=list)


def load_manifest(path: str) -> DatasetManifest:
    """Read and validate a JSON manifest; paths resolve against its folder."""
    with open(path, "r", encoding="utf-8") as handle:
        raw = json.load(handle)
    base = os.path.dirname(os.path.abspath(path))
    entries = []
    for position, item in enumerate(raw.get("entries", [])):
        try:
            rel = item["path"]
            vuln_class = VulnClass.parse(item["vuln_class"])
            function_name = item["function"]
        except (KeyError, ValueError) as exc:
            raise ValueError(f"{path}: entry {position}: {exc}") from None
        resolved = rel if os.path.isabs(rel) else os.path.join(base, rel)
        if not os.path.exists(resolved):
            raise ValueError(f"{path}: entry {position}: no such file {rel!r}")
        entries.append(ManifestEntry(
            path=rel,
            resolved_path=resolved,
            vuln_class=vuln_class,
            function_name=function_name,
            line_hint=item.get("line"),
        ))
    return DatasetManifest(entries=entries, notes=list(raw.get("notes", [])))


def dedup_against_kb(manifest: DatasetManifest, kb: PropertyGraph
                     ) -> tuple[list[ManifestEntry], list[tuple[ManifestEntry, str]]]:
    """Split entries into kept and (excluded, matching KB contract id).

    A test contract is excluded when its canonical token hash equals the
    stored hash of any corpus file the KB was built from.
    """
    meta = kb.embedder_meta or {}
    corpus_hashes: dict[str, str] = meta.get("corpus_hashes", {})
    kept: list[ManifestEntry] = []
    excluded: list[tuple[ManifestEntry, str]] = []
    for entry in manifest.entries:
        with open(entry.resolved_path, "rb") as handle:
            raw = handle.read()
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise IngestError("NonUtf8", f"{entry.resolved_path}: {exc}") from None
        digest = canonical_source_hash(text)
        if digest in corpus_hashes:
            excluded.append((entry, corpus_hashes[digest]))
        else:
            kept.append(entry)
    return kept, excluded


@dataclass(frozen=True)
class CaseRow:
    path: str
    vuln_class: str
    function_name: str
    stage: str
    compiled: bool
    fixed: bool

    def line(self) -> str:
        if self.fixed:
            status = "fixed"
        elif self.compiled:
            status = "compiled-only"
        else:
            status = "failed"
        return (f"  {status:<13} stage={self.stage:<17} class={self.vuln_class:<22} "
                f"function={self.function_name:<20} path={self.path}")


@dataclass
class KReport:
    k: int
    metrics: MetricsReport
    rows: list[CaseRow]


@dataclass
class EvaluationReport:
    kb_function_count: int
    kept_count: int
    excluded: list[tuple[str, str]]  # (manifest path, matching kb contract id)
    k_reports: list[KReport]

    def render(self) -> str:
        out = [
            "repair evaluation report",
            f"format: {REPORT_FORMAT_VERSION}",
            "",
            f"kb functions: {self.kb_function_count}",
            f"entries kept: {self.kept_count}",
            f"entries excluded: {len(self.excluded)}",
        ]
        for path, kb_id in self.excluded:
            out.append(f"  excluded: {path} duplicates {kb_id}")
        for k_report in self.k_reports:
            out.append("")
            out.append(f"[k={k_report.k}]")
            out.extend(k_report.metrics.lines())
            out.append("cases:")
            out.extend(row.line() for row in k_report.rows)
        return "\n".join(out) + "\n"

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.render())


def _failed(report: VulnerabilityReport, diagnostic: str) -> RepairOutcome:
    return RepairOutcome(report=report, compiled=False, fixed=False,
                         diagnostics=(diagnostic,))


# A loaded entry ready to repair, or the failure row that every k reports.
_Loaded = Union[tuple[SourceUnit, VulnerabilityReport], RepairOutcome]


def _load_entry(entry: ManifestEntry) -> _Loaded:
    """Read and parse one entry once, for its repairs at every k."""
    placeholder = VulnerabilityReport(
        contract_path=entry.path,
        function_id="(unresolved)",
        vuln_class=entry.vuln_class,
        evidence=f"function {entry.function_name}",
    )
    try:
        unit = load_source(entry.resolved_path)
    except Exception as exc:  # record, never abort the batch
        log.warning("entry %s failed: %s", entry.path, exc)
        return _failed(placeholder, f"entry failed: {exc}")
    fn = unit.find_function_by_name(entry.function_name)
    if fn is None:
        return _failed(placeholder,
                       f"function {entry.function_name!r} not found in {entry.path}")
    return unit, dataclasses.replace(placeholder, function_id=fn.id)


def _run_entry(item: _Loaded, kb: PropertyGraph, cfg: RepairConfig) -> RepairOutcome:
    """One repair job; any failure becomes a not-compiled outcome row."""
    if isinstance(item, RepairOutcome):
        return item
    unit, report = item
    try:
        return repair(unit, report, kb, cfg)
    except Exception as exc:  # record, never abort the batch
        log.warning("entry %s failed: %s", report.contract_path, exc)
        return _failed(dataclasses.replace(report, function_id="(unresolved)"),
                       f"entry failed: {exc}")


def run_dataset(manifest: DatasetManifest, kb: PropertyGraph, cfg: RepairConfig,
                k_values: Optional[list[int]] = None, jobs: int = 1,
                dedup: bool = True) -> EvaluationReport:
    """Repair every kept entry once per k and collect one report per k."""
    if k_values is None or not k_values:
        k_values = [cfg.k]
    if dedup:
        kept, excluded_pairs = dedup_against_kb(manifest, kb)
    else:
        kept, excluded_pairs = list(manifest.entries), []
    loaded = [_load_entry(entry) for entry in kept]
    k_reports = []
    for k in k_values:
        run_cfg = dataclasses.replace(cfg, k=k)
        if jobs > 1:
            with ThreadPoolExecutor(max_workers=jobs) as pool:
                outcomes = list(pool.map(lambda item: _run_entry(item, kb, run_cfg), loaded))
        else:
            outcomes = [_run_entry(item, kb, run_cfg) for item in loaded]
        rows = []
        for entry, outcome in zip(kept, outcomes):
            rows.append(CaseRow(
                path=entry.path,
                vuln_class=entry.vuln_class.value,
                function_name=entry.function_name,
                stage=outcome.stage_used.value if outcome.stage_used else "-",
                compiled=outcome.compiled,
                fixed=outcome.fixed,
            ))
        k_reports.append(KReport(k=k, metrics=compute_metrics(outcomes), rows=rows))
    return EvaluationReport(
        kb_function_count=len(kb.function_nodes()),
        kept_count=len(kept),
        excluded=[(entry.path, kb_id) for entry, kb_id in excluded_pairs],
        k_reports=k_reports,
    )
