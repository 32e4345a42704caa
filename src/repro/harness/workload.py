"""The evaluation workload of Section 6.

"As input, we insert link tables for N nodes with average outdegree of
three, and vary the size of N from 10 to 100."  The link tables themselves
are the topology's links, shaped to the program by
:func:`repro.net.kernel.shape_link_facts` (``network.base_facts()``).
"""

from __future__ import annotations

from typing import Tuple

from repro.net.topology import Topology, random_topology

#: The paper's sweep: N from 10 to 100.
PAPER_NODE_COUNTS: Tuple[int, ...] = (10, 20, 30, 40, 50, 60, 70, 80, 90, 100)
#: Average out-degree used throughout the evaluation.
PAPER_AVERAGE_OUTDEGREE = 3.0


def evaluation_topology(node_count: int, seed: int = 0) -> Topology:
    """A random topology matching the paper's workload parameters."""
    return random_topology(
        node_count=node_count,
        average_outdegree=PAPER_AVERAGE_OUTDEGREE,
        seed=seed,
    )
