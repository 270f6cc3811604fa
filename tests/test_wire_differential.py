"""Cross-layer wire-format differential: simulator vs. generated interfaces.

The heart of the Section 4.4 claim is that both sides of every synchronizer
use the *same* canonical bit-level packing, so the data-format mismatch of
Section 2.3 cannot arise.  These tests prove our three layers actually
agree, byte for byte, over every fig13 workload and the multi-domain G/H
partitions:

1. **Simulator wire path** -- values pushed through the co-simulation
   fabric's transport (both backends) land on the link as packed word
   arrays; we capture them straight out of the link's message pool.
2. **Layout** -- the channel's :class:`~repro.platform.marshal.MessageLayout`
   (the single source of truth) must produce the identical framed words.
3. **Generated artifacts** -- the header constants and word counts embedded
   in the generated C pack/unpack helpers and BSV marshal/dispatch rules
   are parsed back out of the artifact text and *re-executed in Python*
   (header word + LSW-first payload copy, exactly what the emitted loops
   do); the resulting bytes must equal the simulator's.

Finally the delivered value must round-trip: what the consumer engine
receives is bit-identical to what the producer enqueued.
"""

import re

import pytest

from repro.apps.raytracer.params import RayTracerParams
from repro.apps.raytracer.partitions import (
    PARTITION_ORDER as RAY_ORDER,
    build_partition as build_ray_partition,
)
from repro.apps.vorbis.params import VorbisParams
from repro.apps.vorbis.partitions import (
    MULTI_PARTITION_ORDER,
    PARTITION_ORDER as VORBIS_ORDER,
    build_multi_partition,
    build_partition as build_vorbis_partition,
)
from repro.codegen.interface import (
    build_interface_spec,
    generate_sw_marshal_source,
    generate_transactors,
)
from repro.core.domains import SW
from repro.core.partition import partition_design
from repro.platform.marshal import layout_for, marshal_message, wire_header
from repro.sim.cosim import CosimFabric

VORBIS_PARAMS = VorbisParams(n_frames=2)
RAY_PARAMS = RayTracerParams(n_triangles=24, image_width=3, image_height=3)

WORKLOADS = (
    [(f"vorbis_{l}", build_vorbis_partition, l, VORBIS_PARAMS) for l in VORBIS_ORDER]
    + [(f"raytracer_{l}", build_ray_partition, l, RAY_PARAMS) for l in RAY_ORDER]
    + [(f"vorbis_{l}", build_multi_partition, l, VORBIS_PARAMS) for l in MULTI_PARTITION_ORDER]
)


def sample_values(ty):
    """Representative elements of ``ty``: default, all-zeros/ones, bit stripes.

    Built through ``ty.unpack`` so every sample is canonical by
    construction (packing it reproduces the exact source bits).
    """
    width = ty.bit_width()
    mask = (1 << width) - 1
    stripes = int("5" * ((width + 3) // 4), 16) & mask
    return [
        ty.default(),
        ty.unpack(0),
        ty.unpack(mask),
        ty.unpack(stripes),
        ty.unpack(stripes << 1 & mask),
    ]


def push_one(fabric, route, value, now=0.0):
    """Send ``value`` over one fabric route; returns the captured wire words."""
    sync, vc, _engine, producer_store, consumer_store, direction, _sw = route
    pool = direction.pool
    pool.compact()  # the drained prefix would otherwise compact mid-push
    base_slots = len(pool.due)
    base_words = len(pool.words)
    producer_store[sync.data] = (value,)
    assert fabric._pump_transport(now), f"{sync.name}: pump launched nothing"
    assert len(pool.due) == base_slots + 1, f"{sync.name}: expected one message"
    return list(pool.words[base_words:])


def drain_one(fabric, route, now):
    """Deliver everything in flight on the route; returns the landed value.

    ``now`` must clear both the message's delivery time and any driver
    charge from the previous delivery (a busy software consumer parks
    deliveries, exactly as in a real run).
    """
    sync, vc, _engine, _producer_store, consumer_store, direction, _sw = route
    assert fabric._deliver_due(now), f"{sync.name}: nothing delivered"
    landed = consumer_store[sync.data]
    assert len(landed) == 1
    consumer_store[sync.data] = ()  # drain the endpoint; credits recompute
    return landed[0]


@pytest.mark.parametrize("name,builder,letter,params", WORKLOADS, ids=lambda w: None)
class TestSimulatorWireBytes:
    """Both backends' transports put the layout's exact bytes on every link."""

    @pytest.fixture(params=["interp", "source"])
    def backend(self, request):
        return request.param

    def test_wire_bytes_match_layout_and_roundtrip(
        self, name, builder, letter, params, backend
    ):
        workload = builder(letter, params)
        fabric = CosimFabric(workload.design, backend=backend)
        if not fabric._routes:
            pytest.skip(f"{name}: empty cut (single-domain partition)")
        clock = 0.0
        for route in fabric._routes:
            sync, vc = route[0], route[1]
            for value in sample_values(sync.ty):
                wire = push_one(fabric, route, value, now=clock)
                expected = vc.layout.pack_message(vc.vc_id, value)
                assert wire == expected, f"{name}/{sync.name}: wire bytes diverge"
                assert wire == marshal_message(
                    vc.vc_id, sync.ty, value, vc.word_bits
                ), f"{name}/{sync.name}: layout diverges from reference marshal"
                assert wire[0] == wire_header(vc.vc_id, vc.layout.payload_words)
                assert len(wire) == vc.words_per_element
                # One window per message: clears delivery latency and any
                # software-consumer driver charge from the previous one.
                clock += 1e6
                delivered = drain_one(fabric, route, now=clock)
                assert delivered == sync.ty.unpack(sync.ty.pack(value)), (
                    f"{name}/{sync.name}: delivered value is not the canonical roundtrip"
                )
                clock += 1e6


def _parsed_c_pack(source: str, ch):
    """Re-execute the generated C pack loop: header literal + payload copy."""
    pattern = (
        rf"static inline void \w*pack_{re.escape(ch.macro)}\(.*?"
        rf"msg\[0\] = 0x([0-9A-Fa-f]+)u(?:ll)?;.*?"
        rf"for \(unsigned i = 0; i < (\d+)u; \+\+i\)"
    )
    m = re.search(pattern, source, re.DOTALL)
    assert m, f"generated C has no pack loop for {ch.name}"
    header, n = int(m.group(1), 16), int(m.group(2))

    def pack(payload):
        assert len(payload) == n, f"{ch.name}: C loop copies {n} words"
        return [header] + list(payload)

    return pack


def _parsed_c_unpack_header(source: str, ch) -> int:
    m = re.search(
        rf"static inline int \w*unpack_{re.escape(ch.macro)}\(.*?"
        rf"if \(msg\[0\] != 0x([0-9A-Fa-f]+)u(?:ll)?\)",
        source,
        re.DOTALL,
    )
    assert m, f"generated C has no unpack check for {ch.name}"
    return int(m.group(1), 16)


def _parsed_bsv_marshal(source: str, ch):
    """Re-execute the generated BSV marshal rules: header enq + word stream."""
    m = re.search(
        rf"rule marshal_{re.escape(ch.macro)}_header.*?"
        rf"enq\((\d+)'h([0-9A-Fa-f]+)\);.*?{re.escape(ch.macro)}_mleft <= (\d+);",
        source,
        re.DOTALL,
    )
    assert m, f"generated BSV has no marshal rules for {ch.name}"
    word_bits, header, n = int(m.group(1)), int(m.group(2), 16), int(m.group(3))

    def pack(bits):
        words = [header]
        mask = (1 << word_bits) - 1
        for _ in range(n):  # the word rule: truncate, then shift right
            words.append(bits & mask)
            bits >>= word_bits
        return words

    return pack


def _parsed_bsv_dispatch(source: str, ch):
    m = re.search(
        rf"rule dispatch_{re.escape(ch.macro)} \(rx_valid && rx_vc == (\d+)"
        rf" && rx_fill == (\d+)\);",
        source,
    )
    assert m, f"generated BSV has no dispatch rule for {ch.name}"
    return int(m.group(1)), int(m.group(2))


@pytest.mark.parametrize("name,builder,letter,params", WORKLOADS, ids=lambda w: None)
def test_generated_artifacts_encode_the_simulators_bytes(name, builder, letter, params):
    """Parse the constants out of the generated C/BSV text and re-execute them."""
    workload = builder(letter, params)
    partitioning = partition_design(workload.design, SW)
    spec = build_interface_spec(partitioning)
    if not spec.channels:
        pytest.skip(f"{name}: empty cut")
    fabric = CosimFabric(workload.design, backend="source")
    routes_by_sync = {route[0].name: route for route in fabric._routes}
    transactors = generate_transactors(spec)
    marshal_sources = {dom: generate_sw_marshal_source(spec, dom) for dom in spec.sw_domains}

    clock = 0.0
    for ch in spec.channels:
        route = routes_by_sync[ch.name]
        sync, vc = route[0], route[1]
        link = spec.link(ch.producer, ch.consumer)
        value = sample_values(sync.ty)[3]
        wire = push_one(fabric, route, value, now=clock)
        clock += 1e6
        drain_one(fabric, route, now=clock)
        clock += 1e6
        payload_words = wire[1:]

        # Producer side: re-execute what the generated marshaler emits.
        if spec.is_hw(ch.producer):
            pack = _parsed_bsv_marshal(transactors[link.name]["tx"], ch)
            encoded = pack(sync.ty.pack(value))  # BSV pack() is the canonical packing
        else:
            pack = _parsed_c_pack(marshal_sources[ch.producer], ch)
            encoded = pack(payload_words)
        assert encoded == wire, f"{name}/{ch.name}: generated producer encodes different bytes"

        # Consumer side: the generated demarshaler accepts exactly this header.
        if spec.is_hw(ch.consumer):
            rx_vc, rx_fill = _parsed_bsv_dispatch(transactors[link.name]["rx"], ch)
            assert (rx_vc, rx_fill) == (ch.vc_id, ch.payload_words)
        else:
            expected_header = _parsed_c_unpack_header(marshal_sources[ch.consumer], ch)
            assert expected_header == wire[0], (
                f"{name}/{ch.name}: generated consumer rejects the simulator's header"
            )

        # And the layout the artifacts were rendered from is the simulator's.
        assert vc.layout is layout_for(sync.ty, ch.word_bits)
