"""A serial run never loads the sharded backend.

``repro.net.sharding`` brings ``multiprocessing`` and the frame codec
(``repro.net.transport``) with it; only a sharded build imports it.  Each
check runs in a fresh interpreter, so nothing an earlier test imported
counts.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SHARDED_BACKEND = ("repro.net.sharding", "repro.net.transport", "multiprocessing")

PROBE = """
import json, sys
from repro.api import Network
from repro.service.workload import QueryWorkload

def loaded():
    return sorted(name for name in {names} if name in sys.modules)

seen = {{}}
network = Network.build(topology=8, program="best-path", provenance="ndlog", seed=1)
assert network.run().converged
seen["ndlog run"] = loaded()
network = Network.build(topology=8, program="best-path", provenance="condensed", seed=1)
assert network.run().converged
workload = QueryWorkload(rate=50, duration=1.0, seed=3, pool=8)
assert network.serve(workload, converge=False).service().offered
seen["condensed serve"] = loaded()
Network.build(
    topology=8, program="best-path", provenance="ndlog", seed=1,
    backend="sharded", shards=2, shard_mode="inline",
)
seen["sharded build"] = loaded()
print(json.dumps(seen))
"""


def test_a_serial_run_never_loads_the_sharded_backend():
    source = Path(repro.__file__).resolve().parent.parent
    completed = subprocess.run(
        [sys.executable, "-c", PROBE.format(names=repr(SHARDED_BACKEND))],
        env=dict(os.environ, PYTHONPATH=str(source)),
        capture_output=True,
        check=True,
        text=True,
        timeout=300,
    )
    seen = json.loads(completed.stdout.splitlines()[-1])
    assert seen["ndlog run"] == []
    assert seen["condensed serve"] == []
    assert seen["sharded build"] == sorted(SHARDED_BACKEND)
