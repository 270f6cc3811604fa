"""The physical communication channel (shared bus / LocalLink) model.

Section 4.4: the low-level details of bus transactions are abstracted as
simple get/put interfaces per supported platform, on top of which the
compiler maps the design's LIBDN FIFOs.  The model here captures the three
quantities the evaluation's partitioning trade-offs hinge on:

* **latency** -- a fixed one-way delay (the ML507 round trip is ~100 FPGA
  cycles),
* **bandwidth** -- a per-word serialisation cost (4 bytes per FPGA cycle
  gives the 400 MB/s the paper reports), and
* **per-transfer overhead** -- the cost of initiating a transaction (driver
  call, descriptor setup, bus arbitration).  Burst/DMA transfers pay it once
  per message; word-at-a-time transfers pay it for every word, which is why
  the Communication-Granularity discussion of Section 2.1 matters.

The channel is full duplex (one direction per :class:`ChannelDirection`),
and each direction is a shared serial resource arbitrated among all virtual
channels, so concurrent synchronizers queue behind one another exactly as
they would on a real bus.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.runstate import CHILD, CHILDREN, DICT, SCALAR, SLICE, run_state


@dataclass(frozen=True)
class ChannelParams:
    """Static parameters of a physical channel."""

    #: Width of one channel word in bits.
    word_bits: int = 32
    #: Fixed one-way propagation/processing latency, in FPGA cycles.
    one_way_latency_cycles: int = 50
    #: Serialisation cost per word, in FPGA cycles (1.0 == 4 bytes/cycle == 400 MB/s).
    cycles_per_word: float = 1.0
    #: Cost of initiating one burst transfer (descriptor setup, arbitration).
    per_message_overhead_cycles: int = 20
    #: Additional cost per word when bursting is disabled (each word becomes
    #: its own bus transaction, as in Figure 3's word-at-a-time loop).
    per_word_overhead_cycles: int = 12

    def occupancy_cycles(self, n_words: int, burst: bool = True) -> float:
        """How long one message of ``n_words`` occupies the channel direction."""
        if n_words <= 0:
            return float(self.per_message_overhead_cycles)
        serial = n_words * self.cycles_per_word
        if burst:
            return self.per_message_overhead_cycles + serial
        return n_words * (self.per_word_overhead_cycles + self.cycles_per_word)

    @property
    def round_trip_latency_cycles(self) -> float:
        """Latency of a minimal request/response pair (the paper's ~100 cycles)."""
        return 2 * (self.one_way_latency_cycles + self.occupancy_cycles(1, burst=True))


@run_state
@dataclass(slots=True)
class ChannelStats:
    """Aggregate channel traffic accounting, reported in benchmark output."""

    RUN_STATE = (
        ("messages", SCALAR),
        ("words", SCALAR),
        ("busy_cycles", SCALAR),
        ("per_vc_messages", DICT),
    )

    messages: int = 0
    words: int = 0
    busy_cycles: float = 0.0
    per_vc_messages: dict = field(default_factory=dict)

    def record(self, vc_id: int, n_words: int, occupancy: float) -> None:
        self.messages += 1
        self.words += n_words
        self.busy_cycles += occupancy
        self.per_vc_messages[vc_id] = self.per_vc_messages.get(vc_id, 0) + 1


@run_state
class MessagePool:
    """Slotted in-flight message storage: flat rings of primitives.

    Messages on a serialised channel direction are delivered strictly in
    send order, so the in-flight set is a queue.  Instead of a list of
    per-message objects, the pool keeps four parallel rings -- one flat
    ring of ints carrying the packed wire words of every queued message
    back to back, and three per-slot rings (vc id, end-of-message word
    index, delivery time).  Sending appends a handful of primitives;
    delivering advances two head cursors; neither allocates a message
    object, which was the per-message floor the dataplane microbenchmark
    identified.

    The list objects' identities are stable for the life of the pool
    (compaction trims them in place), so generated transport routes may
    pre-bind their bound methods.
    """

    __slots__ = ("words", "vc_ids", "bounds", "due", "head", "word_head")

    RUN_STATE = (
        ("words", SLICE),
        ("vc_ids", SLICE),
        ("bounds", SLICE),
        ("due", SLICE),
        ("head", SCALAR),
        ("word_head", SCALAR),
    )

    #: Compact the ring prefix once this many delivered slots accumulate.
    COMPACT_THRESHOLD = 1024

    def __init__(self):
        #: Flat ring of packed wire words (header + payload per message).
        self.words: List[int] = []
        #: Per-slot virtual-channel id.
        self.vc_ids: List[int] = []
        #: Per-slot end index into ``words`` (a slot starts at its
        #: predecessor's end; the first live slot starts at ``word_head``).
        self.bounds: List[int] = []
        #: Per-slot delivery time (non-decreasing: the channel serialises).
        self.due: List[float] = []
        #: Index of the first undelivered slot.
        self.head: int = 0
        #: Index of the first undelivered word.
        self.word_head: int = 0

    @property
    def pending(self) -> int:
        return len(self.due) - self.head

    def next_due(self) -> Optional[float]:
        head = self.head
        if head >= len(self.due):
            return None
        return self.due[head]

    def compact(self) -> None:
        """Reclaim the delivered prefix of the rings (in place, amortised O(1)).

        Safe only between transport phases: callers holding word indices
        into a partially drained pool must not interleave with it.  List
        identities are preserved so pre-bound methods stay valid.
        """
        head = self.head
        if not head:
            return
        if head == len(self.due):
            del self.words[:]
            del self.vc_ids[:]
            del self.bounds[:]
            del self.due[:]
            self.head = 0
            self.word_head = 0
        elif head >= self.COMPACT_THRESHOLD and head * 2 >= len(self.due):
            word_head = self.word_head
            del self.words[:word_head]
            del self.vc_ids[:head]
            del self.due[:head]
            del self.bounds[:head]
            for i in range(len(self.bounds)):
                self.bounds[i] -= word_head
            self.head = 0
            self.word_head = 0

    def push(self, vc_id: int, words: Iterable[int], due: float) -> None:
        """Append one framed message (header + payload words) to the rings."""
        self.compact()
        self.words.extend(words)
        self.vc_ids.append(vc_id)
        self.bounds.append(len(self.words))
        self.due.append(due)

    def next_record_words(self) -> int:
        """Word count of the head message (0 when nothing is in flight).

        Carrier endpoints (:mod:`repro.sim.distrib`) use this to check ring
        space *before* committing to :meth:`pop_next`, so a full carrier
        leaves the message queued here instead of needing an un-pop.
        """
        head = self.head
        if head >= len(self.due):
            return 0
        return self.bounds[head] - self.word_head

    def pop_next(self) -> Optional[Tuple[int, List[int], float]]:
        """Remove and return the head message regardless of its due time.

        The producer-side view of a cut link that crosses a process
        boundary: the framed words leave this pool immediately (they travel
        on the carrier ring) and are re-queued, with the same delivery time,
        in the consumer process's replica pool -- so ``due`` keeps meaning
        *simulated* delivery time while the words physically cross now.
        """
        head = self.head
        due = self.due
        if head >= len(due):
            return None
        start, end = self.word_head, self.bounds[head]
        message = (self.vc_ids[head], self.words[start:end], due[head])
        self.head = head + 1
        self.word_head = end
        return message

    def pop_due(self, now: float) -> Optional[Tuple[int, List[int], float]]:
        """Remove and return the next due message as ``(vc_id, words, due)``.

        Reference-path API: the words are copied out (the generated routes
        instead decode in place from :attr:`words`).  Returns ``None`` when
        the head message is not due (or nothing is in flight).
        """
        head = self.head
        due = self.due
        if head >= len(due) or due[head] > now:
            return None
        start, end = self.word_head, self.bounds[head]
        message = (self.vc_ids[head], self.words[start:end], due[head])
        self.head = head + 1
        self.word_head = end
        return message


@run_state
class ChannelDirection:
    """One direction of the physical channel: a shared, serialised resource.

    In-flight traffic lives in the direction's :class:`MessagePool`; what
    crosses the link is the packed wire words of each message (header +
    payload), exactly the byte stream the generated interfaces move.
    """

    __slots__ = ("params", "name", "burst", "busy_until", "pool", "stats")

    RUN_STATE = (("busy_until", SCALAR), ("pool", CHILD), ("stats", CHILD))

    def __init__(self, params: ChannelParams, name: str, burst: bool = True):
        self.params = params
        self.name = name
        self.burst = burst
        self.busy_until: float = 0.0
        self.pool = MessagePool()
        self.stats = ChannelStats()

    def send_words(
        self,
        vc_id: int,
        words: Sequence[int],
        now: float,
        n_words: Optional[int] = None,
    ) -> float:
        """Enqueue one framed message at ``now``; returns its delivery time.

        ``n_words`` defaults to ``len(words)`` (the wire charge of the
        message); passing a different count is allowed for tests modelling
        oversized transfers.
        """
        if n_words is None:
            n_words = len(words)
        start = max(now, self.busy_until)
        occupancy = self.params.occupancy_cycles(n_words, self.burst)
        delivered = start + occupancy + self.params.one_way_latency_cycles
        self.busy_until = start + occupancy
        self.pool.push(vc_id, words, delivered)
        self.stats.record(vc_id, n_words, occupancy)
        return delivered

    @property
    def pending(self) -> int:
        return self.pool.pending


# --------------------------------------------------------------------------
# N-domain link topologies
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Link:
    """Static description of one point-to-point link between two domains.

    A link is unidirectional (one serialised bus resource); a full-duplex
    connection between two domains is two links.  Per-link parameters let a
    topology mix fabrics of different width/latency (e.g. an on-board
    LocalLink next to a chip-to-chip serial lane)."""

    src: str
    dst: str
    params: ChannelParams
    burst: bool = True

    @property
    def name(self) -> str:
        return f"{self.src}->{self.dst}"


@run_state
class Topology:
    """A routed set of point-to-point links between named domains.

    The two-partition co-simulation is the degenerate topology
    ``{SW->HW, HW->SW}``; an N-domain fabric registers one link per
    (producer domain, consumer domain) pair that its synchronizer cut
    actually uses.  Each link is an independent serialised resource (its own
    :class:`ChannelDirection`), so traffic between one pair of domains never
    occupies another pair's bus -- the property that makes sharding
    independent partition groups sound.

    Links iterate in registration order, which the simulator relies on for
    deterministic delivery sweeps.
    """

    RUN_STATE = (("_directions", CHILDREN),)

    def __init__(self):
        self._links: Dict[Tuple[str, str], Link] = {}
        self._directions: Dict[Tuple[str, str], ChannelDirection] = {}

    def add_link(
        self,
        src: str,
        dst: str,
        params: ChannelParams,
        burst: bool = True,
        name: Optional[str] = None,
    ) -> ChannelDirection:
        """Register a unidirectional ``src -> dst`` link; returns its direction."""
        key = (src, dst)
        if key in self._links:
            raise ValueError(f"topology already has a link {src}->{dst}")
        link = Link(src, dst, params, burst)
        self._links[key] = link
        direction = ChannelDirection(params, name or link.name, burst)
        self._directions[key] = direction
        return direction

    def has_link(self, src: str, dst: str) -> bool:
        return (src, dst) in self._links

    def link(self, src: str, dst: str) -> Link:
        return self._links[(src, dst)]

    def direction(self, src: str, dst: str) -> ChannelDirection:
        """The serialised resource carrying ``src -> dst`` traffic."""
        try:
            return self._directions[(src, dst)]
        except KeyError:
            raise KeyError(
                f"topology has no link {src}->{dst}; registered: "
                f"{sorted(self._links)}"
            ) from None

    @property
    def links(self) -> List[Link]:
        return list(self._links.values())

    @property
    def directions(self) -> List[ChannelDirection]:
        return list(self._directions.values())

    def __iter__(self) -> Iterator[ChannelDirection]:
        return iter(self._directions.values())

    def __len__(self) -> int:
        return len(self._links)

    @classmethod
    def for_routes(
        cls,
        routes: Iterable[Tuple[str, str]],
        default_params: ChannelParams,
        burst: bool = True,
        link_params: Optional[Dict[Tuple[str, str], ChannelParams]] = None,
    ) -> "Topology":
        """Build a topology with one link per (src, dst) route.

        ``link_params`` overrides the channel parameters of individual links
        (latency/width asymmetry between domain pairs); every other route
        uses ``default_params``.  Duplicate routes are collapsed.
        """
        topo = cls()
        overrides = link_params or {}
        for src, dst in routes:
            if not topo.has_link(src, dst):
                topo.add_link(src, dst, overrides.get((src, dst), default_params), burst)
        return topo
