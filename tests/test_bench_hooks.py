"""The benchmark's traced run wraps pipeline functions by module and name.

Renaming or removing one of them breaks ``bench/run.py --trace 1``; this
test makes that a test failure instead.
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
