"""First-class network API: build, run and query provenance-aware networks.

Everything user-facing lives behind two objects:

* :class:`Network` — ``Network.build(topology=..., program=...,
  provenance="sendlog-prov", **options)`` is the one way to assemble a
  run: a provenance preset names the paper configuration and every other
  knob is a validated :class:`NetOptions` field; ``network.run()`` drives
  it to the distributed fixpoint and returns a unified :class:`RunResult`;
* in-network provenance queries — ``network.query(key, at=node,
  mode="online" | "offline", ...)`` answers tracebacks *over the network*,
  paying per-message bytes and latency attributed to the ``query_bytes`` /
  ``query_messages`` statistics category.

The package sits below :mod:`repro.harness`: the experiment sweeps and the
scenario scripts build their runs here, and nothing here imports them.
"""

from repro.api.network import Network
from repro.api.options import BACKENDS, PROVENANCE_PRESETS, NetOptions, resolve_preset
from repro.api.results import RunResult
from repro.net.query import ProvenanceQuery, QueryResult

__all__ = [
    "BACKENDS",
    "Network",
    "NetOptions",
    "PROVENANCE_PRESETS",
    "ProvenanceQuery",
    "QueryResult",
    "RunResult",
    "resolve_preset",
]
