"""Benchmark harness: one runner per table/figure of the paper's evaluation.

Each ``run_figN`` function returns a list of row dicts (the same series the
paper plots) and is invoked both by the ``benchmarks/`` suite and by the
EXPERIMENTS.md regeneration script. Scales default to single-core-friendly
sizes; pass larger parameters to sweep further.
"""

from repro.bench.harness import format_table, sweep_error
from repro.bench.fig3 import run_fig3
from repro.bench.fig4 import run_fig4a, run_fig4b, run_fig4c, measured_breakdown
from repro.bench.fig5 import run_fig5_centralized, run_fig5_subfilter
from repro.bench.fig6 import run_fig6
from repro.bench.fig7 import run_fig7
from repro.bench.fig8 import run_fig8
from repro.bench.fig9 import run_fig9
from repro.bench.allocation import run_allocation_bench
from repro.bench.tables import table2_rows, table3_rows

__all__ = [
    "run_allocation_bench",
    "format_table",
    "sweep_error",
    "run_fig3",
    "run_fig4a",
    "run_fig4b",
    "run_fig4c",
    "measured_breakdown",
    "run_fig5_centralized",
    "run_fig5_subfilter",
    "run_fig6",
    "run_fig7",
    "run_fig8",
    "run_fig9",
    "table2_rows",
    "table3_rows",
]
