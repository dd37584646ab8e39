"""Frame-level fault injection (the network face of :mod:`repro.audit.faults`).

Where the audit harness kills the dedup-2 pipeline at step boundaries,
this shim damages the *wire*: it installs as a
:class:`~repro.net.client.NetClient` ``fault_hook`` and drops, truncates
or duplicates outgoing frames at chosen occurrences.  The client's retry
layer — timeouts, reconnect, idempotent request ids — must recover from
every one of them without double-executing a mutation; the loopback
integration tests prove it (``tests/test_net_remote.py``).

Actions:

``drop``
    The frame never reaches the wire.  The client times out waiting for
    a response and retries with the same request id.
``truncate``
    Only the first half of the frame is sent.  The server's frame reader
    fails mid-frame and drops the connection; the client reconnects and
    retries.
``duplicate``
    The frame is sent twice back to back.  The server executes once and
    answers the second copy from its idempotency cache; the client
    discards the stale extra response by request id.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional, Tuple

DROP = "drop"
TRUNCATE = "truncate"
DUPLICATE = "duplicate"

#: Every frame-level fault action, in escalation order.
FRAME_FAULTS: Tuple[str, ...] = (DROP, TRUNCATE, DUPLICATE)


class FrameFaultPlan:
    """Apply one fault action to the ``occurrence``-th outgoing frame.

    Install as ``client.net.fault_hook`` (or through :func:`inject_frames`).
    Every outgoing frame is counted in :attr:`sent`; the matching one is
    damaged and :attr:`fired` set.  Handshake frames are exempt — faults
    target requests, not connection setup, so a reconnect can always
    complete and the retry path terminates.
    """

    def __init__(self, action: str, occurrence: int = 1) -> None:
        if action not in FRAME_FAULTS:
            raise ValueError(f"unknown frame fault {action!r}; one of {FRAME_FAULTS}")
        if occurrence < 1:
            raise ValueError("occurrence must be >= 1")
        self.action = action
        self.occurrence = occurrence
        self.sent = 0
        self.fired = False

    def __call__(self, direction: str, blob: bytes, client) -> Optional[bytes]:
        if direction != "send":
            return blob
        self.sent += 1
        if self.fired or self.sent != self.occurrence:
            return blob
        self.fired = True
        if self.action == DROP:
            return None
        if self.action == DUPLICATE:
            return blob + blob
        # TRUNCATE: push half the frame, then cut the connection so
        # neither side waits a full timeout on the broken stream.
        half = blob[: max(1, len(blob) // 2)]
        try:
            client._send_raw(half)
        except OSError:
            pass
        client._drop_connection()
        return None


@contextmanager
def inject_frames(net_client, action: str, occurrence: int = 1) -> Iterator[FrameFaultPlan]:
    """Arm one frame fault on a :class:`~repro.net.client.NetClient` for a
    ``with`` block, restoring the previous hook on exit::

        with inject_frames(client.net, DROP, occurrence=3) as plan:
            client.backup("job", [data_dir])
        assert plan.fired
    """
    plan = FrameFaultPlan(action, occurrence)
    previous = net_client.fault_hook
    net_client.fault_hook = plan
    try:
        yield plan
    finally:
        net_client.fault_hook = previous
