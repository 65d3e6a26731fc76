"""Retrieval-augmented repair pipeline for Solidity smart contracts.

The package is organized around a linear pipeline:

    ingest    -> parse .sol sources into contracts, functions, and triples
    graph     -> property graph, clone groups, usage frequency, KB file
    vectors   -> sparse vectors and the knowledge base's vector table
    embedding -> embedding providers and the exact k-NN vector index
    rerank    -> syntactic filter, trust rescoring, clone deduplication
    repair    -> prompt construction and the two-stage patch loop
    verify    -> compile proxy and per-class vulnerability re-detection
    metrics   -> repair-rate arithmetic (CPR / ERR / ORR)
    evaluate  -> dataset manifests, dedup, batch runs, report rendering
    cli       -> the `scpatcher` command
"""

__version__ = "0.1.0"

from .model import (
    FunctionUnit,
    PatchCandidate,
    RepairOutcome,
    RepairStage,
    SignatureFeatures,
    VulnClass,
    VulnerabilityReport,
)

__all__ = [
    "FunctionUnit",
    "PatchCandidate",
    "RepairOutcome",
    "RepairStage",
    "SignatureFeatures",
    "VulnClass",
    "VulnerabilityReport",
    "__version__",
]
