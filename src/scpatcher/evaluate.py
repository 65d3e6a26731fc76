"""Dataset manifests and batch evaluation over a knowledge base.

A manifest lists vulnerable contracts with their class and function. Each
entry is read and parsed once per run. Before running, entries whose
canonical source hash (taken from the parse's tokens) already appears in
the KB are excluded (train/test hygiene). Each kept entry then goes through
the full repair pipeline once per requested k; the resulting report renders
to a stable text format suitable for golden-file comparison.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
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


@dataclass
class DatasetManifest:
    entries: list[ManifestEntry]


def load_manifest(path: str) -> DatasetManifest:
    """Read and validate a JSON manifest; paths resolve against its folder.

    The manifest is an object whose ``"entries"`` list holds one object per
    case, with ``path``, ``vuln_class`` and ``function``: the entry names its
    function, and the first function with that name in the file is repaired.
    Other keys are ignored. Any other shape raises ``ValueError``, naming the
    entry's position where there is one.
    """
    with open(path, "r", encoding="utf-8") as handle:
        raw = json.load(handle)
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: manifest must be a JSON object")
    items = raw.get("entries", [])
    if not isinstance(items, list):
        raise ValueError(f"{path}: \"entries\" must be a list")
    base = os.path.dirname(os.path.abspath(path))
    entries = []
    for position, item in enumerate(items):
        if not isinstance(item, dict):
            raise ValueError(f"{path}: entry {position}: must be an object")
        try:
            rel = item["path"]
            vuln_class = VulnClass.parse(item["vuln_class"])
            function_name = item["function"]
        except (KeyError, ValueError) as exc:
            raise ValueError(f"{path}: entry {position}: {exc}") from None
        if not isinstance(rel, str):
            raise ValueError(f"{path}: entry {position}: path must be a string")
        resolved = rel if os.path.isabs(rel) else os.path.join(base, rel)
        if not os.path.exists(resolved):
            raise ValueError(f"{path}: entry {position}: no such file {rel!r}")
        entries.append(ManifestEntry(
            path=rel,
            resolved_path=resolved,
            vuln_class=vuln_class,
            function_name=function_name,
        ))
    return DatasetManifest(entries=entries)


def _failed(report: VulnerabilityReport, diagnostic: str) -> RepairOutcome:
    return RepairOutcome(report=report, compiled=False, fixed=False,
                         diagnostics=(diagnostic,))


def _placeholder(entry: ManifestEntry) -> VulnerabilityReport:
    return VulnerabilityReport(
        contract_path=entry.path,
        function_id="(unresolved)",
        vuln_class=entry.vuln_class,
    )


# An entry's parsed file, or the failure row that every k reports.
_Read = Union[SourceUnit, RepairOutcome]
# A kept entry ready to repair, or its failure row.
_Loaded = Union[tuple[SourceUnit, VulnerabilityReport], RepairOutcome]


def _read_entry(entry: ManifestEntry, strict: bool) -> _Read:
    """Read and parse one entry's file, once per run.

    A failure becomes the row every k reports, except that with ``strict``
    (dedup, which must hash every entry) an unreadable or non-UTF-8 file
    raises before any repair starts.
    """
    try:
        return load_source(entry.resolved_path)
    except Exception as exc:  # record, never abort the batch
        if strict and isinstance(exc, OSError):
            raise
        if strict and isinstance(exc, IngestError) and exc.code == "NonUtf8":
            # dedup's message: the path and the decoding error
            raise IngestError("NonUtf8", f"{entry.resolved_path}: {exc.__cause__}") from None
        log.warning("entry %s failed: %s", entry.path, exc)
        return _failed(_placeholder(entry), f"entry failed: {exc}")


def _load_entry(entry: ManifestEntry, read: _Read) -> _Loaded:
    """The repair job of a kept entry, or its failure row."""
    if isinstance(read, RepairOutcome):
        return read
    fn = read.find_function_by_name(entry.function_name)
    if fn is None:
        return _failed(_placeholder(entry),
                       f"function {entry.function_name!r} not found in {entry.path}")
    return read, dataclasses.replace(_placeholder(entry), function_id=fn.id)


def dedup_against_kb(manifest: DatasetManifest, kb: PropertyGraph,
                     units: Optional[list[_Read]] = None,
                     ) -> tuple[list[ManifestEntry], list[tuple[ManifestEntry, str]]]:
    """Split entries into kept and (excluded, matching KB contract id).

    A test contract is excluded when its canonical token hash equals the
    stored hash of any corpus file the KB was built from. ``units`` holds
    each entry's ``_read_entry(entry, strict=True)``, in manifest order,
    when the caller has read them; otherwise they are read here. An
    unreadable or non-UTF-8 entry raises. An entry that does not parse is
    kept: the KB holds hashes of parsed files only, and files with equal
    hashes have equal tokens, so they parse alike.
    """
    if units is None:
        units = [_read_entry(entry, strict=True) for entry in manifest.entries]
    meta = kb.embedder_meta or {}
    corpus_hashes: dict[str, str] = meta.get("corpus_hashes", {})
    kept: list[ManifestEntry] = []
    excluded: list[tuple[ManifestEntry, str]] = []
    for entry, unit in zip(manifest.entries, units):
        if isinstance(unit, RepairOutcome):
            kept.append(entry)
            continue
        digest = canonical_source_hash(unit.tokens)
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
    units = [_read_entry(entry, strict=dedup) for entry in manifest.entries]
    if dedup:
        kept, excluded_pairs = dedup_against_kb(manifest, kb, units)
    else:
        kept, excluded_pairs = list(manifest.entries), []
    read = dict(zip(manifest.entries, units))  # equal entries name the same file
    loaded = [_load_entry(entry, read[entry]) for entry in kept]
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
