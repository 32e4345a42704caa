"""The coordination frame codec of the sharded backend.

The sharded coordinator and its shard kernels exchange one frame per
command and one per reply: a command is the tuple ``(op, *args)`` and a
reply the value the op returns — cross-shard export batches (``(deliver_at,
message)`` pairs), stamped control-event batches, window grants, stats
snapshots.  Every frame is one :func:`pickle.dumps` at the highest protocol:
the Fact, message and event classes are the only code that knows their
fields, and a decoded frame is the same object the serial backend hands its
receiver.

Frames only cross the run's own private pipes, between the coordinator and
workers it forked (the recalled kernels already travel over them as
pickles), so unpickling them trusts nothing new.  They are deterministic: pickling a payload built
the same way yields the same bytes in every process, whatever its hash
seed, which is what lets the coordinator expose ``coordination_bytes`` as a
deterministic counter — identical between ``shard_mode="inline"`` and
``"processes"`` runs.
"""

from __future__ import annotations

import pickle


class BinaryCodec:
    """The coordination frame codec: one pickle per frame."""

    def encode_frame(self, value: object) -> bytes:
        return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)

    def decode_frame(self, data: bytes) -> object:
        return pickle.loads(data)
