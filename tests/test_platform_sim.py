"""Tests for the platform substrate (channel, LIBDN) and the co-simulation engines."""

import pytest

from repro.core.action import par
from repro.core.domains import HW, SW
from repro.core.expr import BinOp, Const, KernelCall, RegRead
from repro.core.module import Design, Module
from repro.core.optimize import OptimizationConfig
from repro.core.synchronizers import SyncFifo
from repro.core.types import UIntT, VectorT
from repro.platform.channel import ChannelParams, DuplexChannel
from repro.platform.libdn import VirtualChannelTable
from repro.platform.platform import Platform
from repro.sim.cosim import Cosimulator


def build_offload_design(n_items=6, hw_kernel_cycles=10):
    """SW produces, HW computes a kernel, SW accumulates (the minimal codesign)."""
    top = Module("top")
    swm = top.add_submodule(Module("swside", domain=SW))
    hwm = top.add_submodule(Module("hwside", domain=HW))
    to_hw = top.add_submodule(SyncFifo("to_hw", UIntT(32), SW, HW, depth=2))
    to_sw = top.add_submodule(SyncFifo("to_sw", UIntT(32), HW, SW, depth=2))
    cnt = swm.add_register("cnt", UIntT(32), 0)
    acc = swm.add_register("acc", UIntT(32), 0)
    ndone = swm.add_register("ndone", UIntT(32), 0)
    swm.add_rule(
        "produce",
        par(to_hw.call("enq", RegRead(cnt)), cnt.write(BinOp("+", RegRead(cnt), Const(1))))
        .when(BinOp("<", RegRead(cnt), Const(n_items))),
    )
    square = KernelCall(
        "square", lambda x: x * x, [to_hw.value("first")], sw_cycles=40, hw_cycles=hw_kernel_cycles
    )
    hwm.add_rule("compute", par(to_sw.call("enq", square), to_hw.call("deq")))
    swm.add_rule(
        "collect",
        par(
            acc.write(BinOp("+", RegRead(acc), to_sw.value("first"))),
            to_sw.call("deq"),
            ndone.write(BinOp("+", RegRead(ndone), Const(1))),
        ),
    )
    return Design(top, "offload"), acc, ndone, n_items


class TestChannelModel:
    def test_burst_amortises_overhead(self):
        params = ChannelParams()
        assert params.occupancy_cycles(128, burst=True) < params.occupancy_cycles(128, burst=False)

    def test_occupancy_scales_with_words(self):
        params = ChannelParams()
        assert params.occupancy_cycles(200) > params.occupancy_cycles(100)

    def test_round_trip_close_to_paper(self):
        params = Platform.ml507().channel
        assert 80 <= params.round_trip_latency_cycles <= 160

    def test_messages_serialise_on_one_direction(self):
        channel = DuplexChannel(ChannelParams())
        m1 = channel.to_hw.send(0, [0] * 100, now=0.0)
        m2 = channel.to_hw.send(1, [1] * 100, now=0.0)
        assert m2.delivered_at >= m1.delivered_at + channel.params.occupancy_cycles(100)
        assert channel.to_hw.busy_until == 2 * channel.params.occupancy_cycles(100)

    def test_directions_are_independent(self):
        channel = DuplexChannel(ChannelParams())
        m1 = channel.to_hw.send(0, [0] * 100, now=0.0)
        m2 = channel.to_sw.send(1, [1] * 100, now=0.0)
        assert m1.delivered_at == m2.delivered_at

    def test_deliveries_due(self):
        channel = DuplexChannel(ChannelParams())
        message = channel.to_hw.send(0, list(range(10)), now=0.0)
        assert channel.to_hw.deliveries_due(message.delivered_at - 1) == []
        assert channel.to_hw.deliveries_due(message.delivered_at) == [message]
        assert channel.to_hw.pending == 0

    def test_messages_carry_their_wire_words(self):
        """What crosses a link is the packed word array, header first."""
        channel = DuplexChannel(ChannelParams())
        words = [0x0002000A] + list(range(10))
        message = channel.to_hw.send(2, words, now=0.0)
        assert message.words == tuple(words)
        (delivered,) = channel.to_hw.deliveries_due(message.delivered_at)
        assert delivered.words == tuple(words)

    def test_stats_accumulate(self):
        channel = DuplexChannel(ChannelParams())
        channel.to_hw.send(0, [0] * 10, now=0.0)
        channel.to_hw.send(0, [1] * 10, now=0.0)
        assert channel.total_messages == 2
        assert channel.total_words == 20

    def test_pool_compacts_when_drained(self):
        direction = DuplexChannel(ChannelParams()).to_hw
        for i in range(8):
            direction.send(0, [i, i], now=0.0)
        assert direction.pool.pending == 8
        direction.deliveries_due(1e9)
        assert direction.pool.pending == 0
        direction.send(0, [9, 9], now=0.0)  # push compacts the drained rings
        assert direction.pool.head == 0 and direction.pool.word_head == 0
        assert direction.pool.words == [9, 9]


class TestVirtualChannels:
    def test_table_assigns_unique_ids(self):
        syncs = [SyncFifo(f"s{i}", UIntT(32), SW, HW) for i in range(3)]
        table = VirtualChannelTable(syncs)
        ids = [table.channel_for(s).vc_id for s in syncs]
        assert sorted(ids) == [0, 1, 2]
        assert table.by_id(1).sync is syncs[1]

    def test_words_per_element_includes_header(self):
        sync = SyncFifo("s", VectorT(4, UIntT(32)), SW, HW)
        table = VirtualChannelTable([sync])
        assert table.channel_for(sync).words_per_element == 5

    def test_credit_accounting(self):
        sync = SyncFifo("s", UIntT(32), SW, HW, depth=2)
        table = VirtualChannelTable([sync])
        vc = table.channel_for(sync)
        assert vc.can_send()
        vc.on_send()
        vc.on_send()
        assert not vc.can_send()
        vc.on_deliver()
        vc.on_credit_return()
        assert vc.can_send()

    def test_channel_carries_one_layout(self):
        """One MessageLayout per channel: encode/decode come from it."""
        from repro.platform.marshal import layout_for

        sync = SyncFifo("s", VectorT(4, UIntT(32)), SW, HW)
        vc = VirtualChannelTable([sync]).channel_for(sync)
        assert vc.layout is layout_for(sync.ty, 32)
        value = (1, 2, 3, 4)
        assert vc.decode(vc.layout.encoder(vc.vc_id)(value), 1) == value

    def test_narrow_word_width_is_a_build_time_error(self):
        """A link too narrow for the header fails when the table is built,
        not by corrupting headers mid-simulation (typed WireFormatError)."""
        from repro.core.errors import WireFormatError

        sync = SyncFifo("s", UIntT(32), SW, HW)
        with pytest.raises(WireFormatError):
            VirtualChannelTable([sync], word_bits=16)
        with pytest.raises(WireFormatError):
            VirtualChannelTable([sync], word_bits_by_sync={sync: 16})

    def test_vc_id_space_overflow_is_a_build_time_error(self):
        from repro.core.errors import WireFormatError
        from repro.platform.marshal import VC_ID_BITS

        syncs = [SyncFifo(f"s{i}", UIntT(8), SW, HW) for i in range((1 << VC_ID_BITS) + 1)]
        with pytest.raises(WireFormatError):
            VirtualChannelTable(syncs)


class TestCosimulator:
    def test_offload_produces_correct_result(self):
        design, acc, ndone, n = build_offload_design()
        cosim = Cosimulator(design)
        result = cosim.run(lambda c: c.read_sw(ndone) >= n)
        assert result.completed
        assert cosim.read_sw(acc) == sum(i * i for i in range(n))

    def test_channel_carries_one_message_per_item_each_way(self):
        design, acc, ndone, n = build_offload_design()
        cosim = Cosimulator(design)
        result = cosim.run(lambda c: c.read_sw(ndone) >= n)
        assert result.channel_messages == 2 * n

    def test_every_rule_fires_once_per_item(self):
        design, acc, ndone, n = build_offload_design()
        cosim = Cosimulator(design)
        result = cosim.run(lambda c: c.read_sw(ndone) >= n)
        assert all(count == n for count in result.fire_counts.values())

    def test_latency_shows_up_in_total_cycles(self):
        """Higher channel latency must not change results, only timing."""
        design1, acc1, ndone1, n = build_offload_design()
        fast = Cosimulator(design1, platform=Platform.ml507())
        r_fast = fast.run(lambda c: c.read_sw(ndone1) >= n)
        design2, acc2, ndone2, _ = build_offload_design()
        slow_platform = Platform.ml507().with_channel(one_way_latency_cycles=500)
        slow = Cosimulator(design2, platform=slow_platform)
        r_slow = slow.run(lambda c: c.read_sw(ndone2) >= n)
        assert fast.read_sw(acc1) == slow.read_sw(acc2)
        assert r_slow.fpga_cycles > r_fast.fpga_cycles

    def test_multicycle_hw_rules_serialise(self):
        """A longer hardware kernel latency lengthens the run."""
        design1, _, ndone1, n = build_offload_design(hw_kernel_cycles=1)
        design2, _, ndone2, _ = build_offload_design(hw_kernel_cycles=200)
        r1 = Cosimulator(design1).run(lambda c: c.read_sw(ndone1) >= n)
        r2 = Cosimulator(design2).run(lambda c: c.read_sw(ndone2) >= n)
        assert r2.fpga_cycles > r1.fpga_cycles

    def test_sw_only_design_uses_no_channel(self):
        top = Module("top", domain=SW)
        cnt = top.add_register("cnt", UIntT(32), 0)
        top.add_rule(
            "tick",
            cnt.write(BinOp("+", RegRead(cnt), Const(1))).when(BinOp("<", RegRead(cnt), Const(5))),
        )
        cosim = Cosimulator(Design(top, "sw_only"))
        result = cosim.run(lambda c: c.read_sw(cnt) >= 5)
        assert result.completed
        assert result.channel_messages == 0
        assert result.hw_firings == 0

    def test_incomplete_run_reported(self):
        """A design that deadlocks before the predicate holds is reported as incomplete."""
        design, acc, ndone, n = build_offload_design()
        cosim = Cosimulator(design)
        result = cosim.run(lambda c: c.read_sw(ndone) >= n + 100)
        assert not result.completed

    def test_unoptimised_software_is_slower(self):
        design1, _, ndone1, n = build_offload_design()
        design2, _, ndone2, _ = build_offload_design()
        optimised = Cosimulator(design1, config=OptimizationConfig.all()).run(
            lambda c: c.read_sw(ndone1) >= n
        )
        naive = Cosimulator(design2, config=OptimizationConfig.none()).run(
            lambda c: c.read_sw(ndone2) >= n
        )
        assert naive.sw_cpu_cycles > optimised.sw_cpu_cycles

    def test_driver_cost_charged_for_sw_messages(self):
        design, acc, ndone, n = build_offload_design()
        cosim = Cosimulator(design)
        result = cosim.run(lambda c: c.read_sw(ndone) >= n)
        assert result.sw_cpu_cycles_driver > 0
