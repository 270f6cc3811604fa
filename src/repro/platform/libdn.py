"""LIBDN virtual channels: credit-based flow control over the shared channel.

The partitioned program's synchronizers are LIBDN FIFOs (Latency-Insensitive
Bounded Dataflow Network FIFOs, Section 4.3).  Several of them share one
physical channel, so the generated infrastructure multiplexes them onto
*virtual channels* with credit-based flow control: a producer-side endpoint
may only launch a message when the consumer-side endpoint is known to have
buffer space, which guarantees that one blocked synchronizer can never cause
head-of-line blocking for the others and that no new deadlocks are introduced
(Section 4.4).

The :class:`VirtualChannel` objects here carry the bookkeeping; the actual
movement of data between partition stores is performed by the co-simulator's
transport layer (:mod:`repro.sim.cosim`).  Its pumps compute each launch's
credit window, ``depth - consumer_occupancy - in_flight``, from the
consumer endpoint and the channel's ``in_flight`` count, and record the
window left in ``credits``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.runstate import CHILD, CHILDREN, SCALAR, run_state
from repro.core.synchronizers import SyncFifo
from repro.platform.marshal import MessageLayout, layout_for, validate_wire_format


@run_state
@dataclass(slots=True)
class VirtualChannelStats:
    """Per-virtual-channel traffic counters."""

    RUN_STATE = (
        ("messages_sent", SCALAR),
        ("messages_delivered", SCALAR),
        ("words_sent", SCALAR),
        ("stalled_on_credit", SCALAR),
    )

    messages_sent: int = 0
    messages_delivered: int = 0
    words_sent: int = 0
    stalled_on_credit: int = 0


@run_state
class VirtualChannel:
    """Flow-control state for one synchronizer mapped onto the physical channel."""

    __slots__ = (
        "vc_id",
        "sync",
        "word_bits",
        "credits",
        "in_flight",
        "stats",
        "layout",
        "words_per_element",
        "encode_batch",
        "decode",
        "decode_run",
    )

    RUN_STATE = (("credits", SCALAR), ("in_flight", SCALAR), ("stats", CHILD))

    def __init__(self, vc_id: int, sync: SyncFifo, word_bits: int = 32):
        self.vc_id = vc_id
        self.sync = sync
        self.word_bits = word_bits
        #: Credits available == free slots believed to exist at the consumer side.
        self.credits = sync.depth
        #: Messages launched but not yet delivered (consume a credit each).
        self.in_flight = 0
        self.stats = VirtualChannelStats()
        #: The compiled wire format of this channel's element type -- the
        #: single layout the transport dataplane and the generated
        #: interfaces both derive their packing from.
        self.layout: MessageLayout = layout_for(sync.ty, word_bits)
        #: Channel words per transferred element, including the message header
        #: (fixed by the element type; computed once, it sits on the per-message
        #: hot path of the transport loop).
        self.words_per_element = self.layout.message_words
        #: Compiled framed-message encoders/decoders (hot transport path).
        self.encode_batch = self.layout.batch_encoder(vc_id)
        self.decode = self.layout.decoder()
        self.decode_run = self.layout.run_decoder()

    def note_credit_stall(self) -> None:
        self.stats.stalled_on_credit += 1

    def on_send(self) -> None:
        if self.credits <= 0:
            raise RuntimeError(
                f"virtual channel {self.vc_id} ({self.sync.name}) sent without credit"
            )
        self.credits -= 1
        self.in_flight += 1
        self.stats.messages_sent += 1
        self.stats.words_sent += self.words_per_element

    def on_deliver(self) -> None:
        self.in_flight -= 1
        self.stats.messages_delivered += 1

    def __repr__(self) -> str:
        return (
            f"VirtualChannel(vc={self.vc_id}, sync={self.sync.name}, "
            f"credits={self.credits}, in_flight={self.in_flight})"
        )


@run_state
class VirtualChannelTable:
    """Assignment of virtual-channel ids to the synchronizers of a partitioned design."""

    RUN_STATE = (("channels", CHILDREN),)

    def __init__(
        self,
        syncs: List[SyncFifo],
        word_bits: int = 32,
        word_bits_by_sync: Optional[Dict[SyncFifo, int]] = None,
    ):
        """``word_bits_by_sync`` overrides the word width per synchronizer --
        in an N-domain topology each sync is marshalled for the width of the
        particular link its route is mapped onto.

        The assignment is validated against the wire format up front: the
        global vc-id space must fit ``VC_ID_BITS`` and every channel's
        payload length and header must fit its link's word width, otherwise
        a :class:`~repro.core.errors.WireFormatError` is raised here -- at
        build time -- rather than corrupting headers mid-simulation."""
        self.channels: Dict[SyncFifo, VirtualChannel] = {}
        self._by_id: Dict[int, VirtualChannel] = {}
        overrides = word_bits_by_sync or {}
        for vc_id, sync in enumerate(syncs):
            vc = VirtualChannel(vc_id, sync, overrides.get(sync, word_bits))
            validate_wire_format(
                len(syncs),
                vc.layout.payload_words,
                vc.word_bits,
                context=f"synchronizer {sync.name}",
            )
            self.channels[sync] = vc
            self._by_id[vc_id] = vc

    def channel_for(self, sync: SyncFifo) -> VirtualChannel:
        return self.channels[sync]

    def by_id(self, vc_id: int) -> VirtualChannel:
        try:
            return self._by_id[vc_id]
        except KeyError:
            raise KeyError(f"no virtual channel with id {vc_id}") from None

    @property
    def id_table(self) -> Dict[int, VirtualChannel]:
        """The vc_id -> channel mapping (used by generated delivery routes)."""
        return self._by_id

    def __iter__(self):
        return iter(self.channels.values())

    def __len__(self) -> int:
        return len(self.channels)
