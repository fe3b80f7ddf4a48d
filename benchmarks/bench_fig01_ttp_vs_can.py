"""FIG-1 — the TTP vs standard CAN comparison table (paper Fig. 1).

A qualitative table: the reproduction regenerates every row from the
attribute model in :mod:`repro.analysis.comparison` and asserts the cells
that motivate the paper (CAN lacks membership, failure handling differs).
``repro fig1`` prints the same table (:func:`repro.analysis.figures.fig1_table`).
"""

from conftest import emit

from repro.analysis.comparison import fig1_rows
from repro.analysis.figures import fig1_table


def bench_fig01_table(benchmark):
    emit("fig01_ttp_vs_can", benchmark(fig1_table))
    cells = {row[0]: row for row in fig1_rows()}
    assert cells["Membership service"][2] == "not provided"
    assert cells["Clock synchronization"][2] == "not provided"
    assert "masking" in cells["Omission handling"][1]
