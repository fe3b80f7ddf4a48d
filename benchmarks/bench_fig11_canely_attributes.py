"""FIG-11 — the TTP vs CAN vs CANELy attribute table (paper Fig. 11).

The quantitative CANELy cells are regenerated by this reproduction:

* **inaccessibility duration** — derived from the scenario catalogue of
  :mod:`repro.analysis.inaccessibility` (paper: CAN 14-2880 bit-times,
  CANELy 14-2160);
* **membership latency** — measured by crashing nodes in a simulated
  network and timing the membership-change notification (paper: tens of
  milliseconds);
* **clock synchronization precision** — measured across a simulated
  network running the resynchronization service (paper: tens of µs).

The measurements and the table live in :mod:`repro.analysis.figures`;
``repro fig11`` prints the same table.
"""

from conftest import emit

from repro.analysis.figures import (
    fig11_table,
    measure_clock_precision_us,
    measure_membership_latency_ms,
)
from repro.analysis.inaccessibility import (
    can_inaccessibility_range,
    canely_inaccessibility_range,
)


def bench_fig11_attribute_table(benchmark):
    def measure():
        return measure_membership_latency_ms(), measure_clock_precision_us()

    latency, clock = benchmark.pedantic(measure, rounds=1, iterations=1)
    emit("fig11_canely_attributes", fig11_table(latency, clock))

    # Paper claims, asserted.
    can_lo, can_hi = can_inaccessibility_range()
    ely_lo, ely_hi = canely_inaccessibility_range()
    assert (can_lo, can_hi) == (14, 2880)
    assert ely_lo == 14
    assert abs(ely_hi - 2160) / 2160 < 0.02
    assert latency < 50.0  # "tens of ms"
    assert clock < 100.0  # "tens of us"
