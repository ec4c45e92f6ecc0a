"""Message envelopes and signatures.

A :class:`MessageSignature` is the triple the paper uses to identify
messages in its registries: ``<sending node number, tag, communicator>``.
An :class:`Envelope` is a message in flight: signature, payload bytes,
element count/type info, the virtual time at which it becomes available at
the receiver, and a small *piggyback* area used by the C3 coordination
layer (the paper piggybacks 3 bits: a 2-bit epoch color and 1 logging bit).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, NamedTuple


class MessageSignature(NamedTuple):
    """``<sending node number, tag, communicator>`` (paper, Section 2.3).

    A plain tuple, so the mailbox uses it as its bucket key as is.
    """

    source: int
    tag: int
    context_id: int


# Sequence numbers give the mailbox its per-signature non-overtaking order.
@dataclass(slots=True)
class Envelope:
    signature: MessageSignature
    payload: bytes
    count: int
    type_name: str
    dest: int
    seq: int = 0
    send_time: float = 0.0
    avail_time: float = 0.0
    piggyback: Any = None
    system: bool = False  # control-plane / collective-internal traffic

    @property
    def source(self) -> int:
        return self.signature.source

    @property
    def tag(self) -> int:
        return self.signature.tag

    @property
    def context_id(self) -> int:
        return self.signature.context_id

    @property
    def nbytes(self) -> int:
        return len(self.payload)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Envelope {self.source}->{self.dest} tag={self.tag} "
            f"ctx={self.context_id} {self.nbytes}B seq={self.seq}>"
        )
