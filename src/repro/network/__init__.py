"""Network substrate: link models, slot contention, outages and edge buffers.

§IV attributes the 3.5 s standard deviation of routine durations to unstable
Wi-Fi throughput; §V shows the data-transfer step dominating the edge power
profile ("the network components have a larger energy cost than the
sensors").  This package models the link (a throughput distribution per
profile), fair sharing of one upload slot among its clients (loss model B),
seeded up/down outage schedules, and the store-and-forward buffer a hive
fills while its uplink is dark.
"""

from repro.network.link import LinkModel, LinkSample
from repro.network.wifi import WIFI_80211N_2G4, WIFI_80211N_5G, wifi_profile
from repro.network.contention import (
    ContentionResult,
    fitted_loss_b_seconds_per_client,
    overrun_probability,
    simulate_slot_contention,
    slot_transfer_time,
)
from repro.network.outage import LINK_OUTAGE, IntervalDist, OutagePattern
from repro.network.buffer import (
    BUFFER_POLICIES,
    BufferReport,
    BufferSpec,
    EdgeBuffer,
)

__all__ = [
    "LinkModel",
    "LinkSample",
    "WIFI_80211N_2G4",
    "WIFI_80211N_5G",
    "wifi_profile",
    "ContentionResult",
    "fitted_loss_b_seconds_per_client",
    "overrun_probability",
    "simulate_slot_contention",
    "slot_transfer_time",
    "LINK_OUTAGE",
    "IntervalDist",
    "OutagePattern",
    "BUFFER_POLICIES",
    "BufferReport",
    "BufferSpec",
    "EdgeBuffer",
]
