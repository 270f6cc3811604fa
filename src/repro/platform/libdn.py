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
transport layer (:mod:`repro.sim.cosim`), which consults ``can_send`` before
launching each transfer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.synchronizers import SyncFifo
from repro.platform.marshal import MessageLayout, layout_for, validate_wire_format


@dataclass(slots=True)
class VirtualChannelStats:
    """Per-virtual-channel traffic counters."""

    messages_sent: int = 0
    messages_delivered: int = 0
    words_sent: int = 0
    stalled_on_credit: int = 0


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

    def can_send(self) -> bool:
        """Whether launching one more element would respect the consumer's buffering."""
        return self.credits > 0

    def snapshot(self) -> tuple:
        """Capture the channel's flow-control state and traffic counters."""
        s = self.stats
        return (
            self.credits,
            self.in_flight,
            s.messages_sent,
            s.messages_delivered,
            s.words_sent,
            s.stalled_on_credit,
        )

    def restore(self, snap: tuple) -> None:
        """Reset to a snapshot; the ``stats`` object keeps its identity
        (generated transport pumps pre-bind it)."""
        s = self.stats
        (
            self.credits,
            self.in_flight,
            s.messages_sent,
            s.messages_delivered,
            s.words_sent,
            s.stalled_on_credit,
        ) = snap

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

    def on_credit_return(self, count: int = 1) -> None:
        """The consumer dequeued ``count`` elements; its buffer space is free again."""
        self.credits = min(self.sync.depth, self.credits + count)

    def __repr__(self) -> str:
        return (
            f"VirtualChannel(vc={self.vc_id}, sync={self.sync.name}, "
            f"credits={self.credits}, in_flight={self.in_flight})"
        )


class VirtualChannelTable:
    """Assignment of virtual-channel ids to the synchronizers of a partitioned design."""

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
