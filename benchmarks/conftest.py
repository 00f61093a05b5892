"""Benchmark-suite helpers.

Each benchmark regenerates one table/figure of the paper through
``repro.experiments`` (parallel + disk-cached: the first run trains every
model, later runs replay from ``.repro_cache/``) and writes the rendered
artifact under ``results/``.
"""

from __future__ import annotations

import os
from pathlib import Path

RESULTS_DIR = Path(__file__).resolve().parents[1] / "results"


def host_note() -> str:
    """Cores and BLAS threading of this run, for an artifact's header.

    Ratios timed in process-CPU time count OpenBLAS helper threads too,
    so the same code records different speedups under different
    threading; an artifact must say which it measured.
    """
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "default")
    return f"host: {os.cpu_count()} cores, OPENBLAS_NUM_THREADS={threads}"


def emit(name: str, rendered: str) -> None:
    """Print a rendered table and persist it to results/<name>.txt."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(rendered + "\n")
    print()
    print(rendered)


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    box: dict = {}

    def call():
        box["result"] = fn()

    benchmark.pedantic(call, rounds=1, iterations=1)
    return box["result"]
