"""Network substrate: link models, slot contention, outages and edge buffers.

§IV attributes the 3.5 s standard deviation of routine durations to unstable
Wi-Fi throughput; §V shows the data-transfer step dominating the edge power
profile ("the network components have a larger energy cost than the
sensors").  This package models the link (a throughput distribution per
profile), fair sharing of one upload slot among its clients (loss model B),
seeded up/down outage schedules, and the store-and-forward buffer a hive
fills while its uplink is dark.
"""
