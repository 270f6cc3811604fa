"""Tests for the three compiler outputs: C++ (SW), BSV (HW), interface glue."""

import hashlib
import json
import pathlib
import re
import shutil
import subprocess

import pytest

from repro.apps.raytracer.params import RayTracerParams
from repro.apps.raytracer.partitions import (
    PARTITION_ORDER as RAY_PARTITION_ORDER,
    build_partition as build_ray_partition,
)
from repro.apps.vorbis.params import VorbisParams
from repro.apps.vorbis.partitions import (
    MULTI_PARTITION_ORDER,
    PARTITION_ORDER,
    build_multi_partition,
    build_partition,
)
from repro.codegen.bsv import generate_hw_partition, generate_rule as generate_bsv_rule
from repro.codegen.cxx import generate_rule as generate_cxx_rule, generate_sw_partition
from repro.codegen.interface import (
    ChannelSpec,
    InterfaceSpec,
    LinkSpec,
    build_interface_spec,
    generate_hw_arbiter,
    generate_sw_header,
    generate_sw_marshal_source,
    generate_transactors,
)
from repro.core.action import Loop, Seq, par
from repro.core.domains import HW, SW, Domain
from repro.core.errors import CodegenError, ElaborationError
from repro.core.expr import BinOp, Const, RegRead
from repro.core.module import Design, Module
from repro.core import optimize
from repro.core.optimize import OptimizationConfig, compile_rule
from repro.core.partition import partition_design
from repro.core.primitives import Fifo
from repro.core.types import UIntT
from repro.platform.channel import ChannelParams

PARAMS = VorbisParams(n_frames=2)
GOLDEN_INTERFACE = pathlib.Path(__file__).parent / "golden" / "fig13_interface.json"


def _sha(text):
    return hashlib.sha1(text.encode("utf-8")).hexdigest()[:12]


@pytest.fixture
def simple_design():
    top = Module("top")
    fifo = top.add_submodule(Fifo("q", UIntT(32), depth=2))
    cnt = top.add_register("cnt", UIntT(32), 0)
    out = top.add_register("out", UIntT(32), 0)
    produce = top.add_rule(
        "produce",
        par(fifo.call("enq", RegRead(cnt)), cnt.write(BinOp("+", RegRead(cnt), Const(1))))
        .when(BinOp("<", RegRead(cnt), Const(8))),
    )
    consume = top.add_rule("consume", par(out.write(fifo.value("first")), fifo.call("deq")))
    return Design(top, "simple"), produce, consume


#: SHA-1 prefixes of the C++ of every shipped software partition (with its
#: interface spec) and of each design as a whole-software program (``*``),
#: as generated back when every rule of the design was compiled for it.
CXX_DIGESTS = {
    "vorbis_A/SW": "3b35953e254b",
    "vorbis_A/*": "c80b66d305c1",
    "vorbis_B/SW": "1659751feaae",
    "vorbis_B/*": "44f55de5f3f8",
    "vorbis_C/SW": "5f19cec3590c",
    "vorbis_C/*": "e8c91456a5a2",
    "vorbis_D/SW": "302546059e89",
    "vorbis_D/*": "cceec4c1403f",
    "vorbis_E/SW": "35a48bb9f8c4",
    "vorbis_E/*": "ef2e73a2c5e2",
    "vorbis_F/SW": "46480e8b3152",
    "vorbis_F/*": "46480e8b3152",
    "raytracer_A/SW": "0d22f85610de",
    "raytracer_A/*": "0d22f85610de",
    "raytracer_B/SW": "6c8b973eee61",
    "raytracer_B/*": "5ce9b30b35ab",
    "raytracer_C/SW": "7ea23e8d01d5",
    "raytracer_C/*": "84c637bee715",
    "raytracer_D/SW": "3870dbfcca20",
    "raytracer_D/*": "ab20d363a42b",
    "vorbis_G/SW": "d06f6ce1716d",
    "vorbis_G/*": "0b5187aed0a6",
    "vorbis_H/SW": "5831da777f23",
    "vorbis_H/*": "fdee23a672e4",
}


def _shipped_designs():
    """The 12 shipped designs, freshly built (nothing compiled yet)."""
    scene = RayTracerParams(n_triangles=8, image_width=2, image_height=2)
    return (
        [build_partition(letter, PARAMS).design for letter in PARTITION_ORDER]
        + [build_ray_partition(letter, scene).design for letter in RAY_PARTITION_ORDER]
        + [build_multi_partition(letter, PARAMS).design for letter in MULTI_PARTITION_ORDER]
    )


class TestCxxGeneration:
    def test_figure9_naive_rule_uses_try_catch_and_shadows(self, simple_design):
        design, produce, consume = simple_design
        compiled = compile_rule(produce, OptimizationConfig.none(), design.all_registers())
        code = generate_cxx_rule(compiled)
        assert "try {" in code
        assert "catch (GuardFailure&)" in code
        assert ".shadow()" in code
        assert "rollback" in code

    def test_figure10_optimised_rule_has_no_try_catch(self, simple_design):
        design, produce, consume = simple_design
        compiled = compile_rule(produce, OptimizationConfig.all(), design.all_registers())
        code = generate_cxx_rule(compiled)
        assert "try {" not in code
        assert "lifted guard" in code
        assert ".shadow()" not in code

    def test_guard_lifting_without_inlining_keeps_try_catch(self, simple_design):
        design, produce, consume = simple_design
        config = OptimizationConfig(lift_guards=True, inline_methods=False)
        compiled = compile_rule(produce, config, design.all_registers())
        code = generate_cxx_rule(compiled)
        assert "lifted guard" in code

    def test_whole_partition_translation_unit(self, simple_design):
        design, *_ = simple_design
        code = generate_sw_partition(design)
        assert "run_scheduler" in code
        assert "bool produce()" in code
        assert "bool consume()" in code
        assert "class top" in code

    def test_shipped_partitions_compile_only_their_rules(self, monkeypatch):
        """A partition's C++ compiles only the rules it emits, and the text
        of every shipped partition is what it was when the generator
        compiled the whole design."""
        compiled = []
        original = optimize._compile_rule_uncached

        def record(rule, *args):
            compiled.append(rule)
            return original(rule, *args)

        monkeypatch.setattr(optimize, "_compile_rule_uncached", record)
        digests = {}
        for design in _shipped_designs():
            partitioning = partition_design(design, SW)
            spec = build_interface_spec(partitioning)
            for domain in partitioning.domains:
                if domain.name not in spec.sw_domains:
                    continue
                del compiled[:]
                code = generate_sw_partition(
                    design, spec=spec, partitioning=partitioning, domain=domain
                )
                rules = partitioning.program(domain).rules
                assert sorted(r.full_name for r in compiled) == sorted(r.full_name for r in rules)
                digests[f"{design.name}/{domain.name}"] = _sha(code)
            digests[f"{design.name}/*"] = _sha(generate_sw_partition(design))
        assert digests == CXX_DIGESTS

    def test_sw_partition_of_partitioned_design(self):
        backend = build_partition("B", PARAMS)
        partitioning = partition_design(backend.design, SW)
        code = generate_sw_partition(backend.design, partitioning.program(SW))
        assert "window_overlap" in code
        assert "ifft_stage0" not in code  # the IFFT rules are in the HW partition


class TestBsvGeneration:
    def test_rule_has_lifted_guard_condition(self, simple_design):
        design, produce, consume = simple_design
        code = generate_bsv_rule(produce)
        assert code.startswith("rule produce (")
        assert "endrule" in code
        assert "notFull" in code  # hoisted FIFO readiness

    def test_loops_rejected(self):
        top = Module("top")
        a = top.add_register("a", UIntT(32), 0)
        rule = top.add_rule("looping", Loop(Const(True), a.write(Const(1))))
        with pytest.raises(ElaborationError):
            generate_bsv_rule(rule)

    def test_sequential_composition_rejected(self):
        top = Module("top")
        a = top.add_register("a", UIntT(32), 0)
        rule = top.add_rule("seqrule", Seq([a.write(Const(1)), a.write(Const(2))]))
        with pytest.raises(ElaborationError):
            generate_bsv_rule(rule)

    def test_hw_partition_module(self):
        backend = build_partition("A", PARAMS)
        partitioning = partition_design(backend.design, SW)
        code = generate_hw_partition(backend.design, partitioning.program(HW))
        assert "ifft_stage0" in code and "ifft_stage2" in code
        assert "endmodule" in code
        assert "window_overlap" not in code


class TestInterfaceGeneration:
    @pytest.fixture
    def spec(self):
        backend = build_partition("A", PARAMS)
        partitioning = partition_design(backend.design, SW)
        return build_interface_spec(partitioning)

    def test_channels_cover_the_cut(self, spec):
        assert spec.n_channels == 2
        assert {ch.name for ch in spec.channels} == {"q_pre", "q_ifft"}

    def test_vc_ids_unique(self, spec):
        ids = [ch.vc_id for ch in spec.channels]
        assert len(set(ids)) == len(ids)

    def test_payload_sizes_from_types(self, spec):
        by_name = {ch.name: ch for ch in spec.channels}
        assert by_name["q_pre"].payload_words == 128
        assert by_name["q_pre"].message_words == 129

    def test_sw_header_contents(self, spec):
        header = generate_sw_header(spec)
        assert "#define BCL_NUM_VIRTUAL_CHANNELS 2" in header
        assert "BCL_VC_Q_PRE" in header
        assert "bcl_send_q_pre" in header  # SW -> HW direction
        assert "bcl_recv_q_ifft" in header  # HW -> SW direction

    def test_hw_arbiter_contents(self, spec):
        arbiter = generate_hw_arbiter(spec)
        assert "mkHwSwInterface" in arbiter
        assert "arbitrate_q_ifft" in arbiter

    def test_report_mentions_direction(self, spec):
        report = spec.report()
        assert "SW->HW" in report and "HW->SW" in report

    def test_empty_cut_for_full_sw(self):
        backend = build_partition("F", PARAMS)
        partitioning = partition_design(backend.design, SW)
        spec = build_interface_spec(partitioning)
        assert spec.n_channels == 0

    def test_links_follow_route_pairs(self, spec):
        backend = build_partition("A", PARAMS)
        partitioning = partition_design(backend.design, SW)
        assert [(l.producer, l.consumer) for l in spec.links] == partitioning.route_pairs()

    def test_engine_kind_classification(self, spec):
        assert spec.hw_domains == ["HW"]
        assert spec.sw_domains == ["SW"]


def _declared_identifiers(code: str):
    """Every identifier bound by a generated BSV declaration."""
    return re.findall(r"(\w+) <- mk(?:Reg|SizedFIFO)", code)


class TestGoldenTwoPartitionParity:
    """The route-keyed generator renders the classic two-partition interface
    byte-identically to the pre-refactor generator (pinned at commit 542eba1;
    see tests/golden/regen_fig13_interface.py)."""

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN_INTERFACE.read_text())

    @pytest.mark.parametrize("letter", PARTITION_ORDER)
    def test_vorbis_partitions_byte_identical(self, golden, letter):
        backend = build_partition(letter, PARAMS)
        partitioning = partition_design(backend.design, SW)
        spec = build_interface_spec(partitioning)
        pinned = golden[f"vorbis_{letter}"]
        assert spec.report() == pinned["report"]
        assert generate_sw_header(spec) == pinned["sw_header"]
        assert generate_hw_arbiter(spec) == pinned["hw_arbiter"]

    @pytest.mark.parametrize("letter", RAY_PARTITION_ORDER)
    def test_raytracer_partitions_byte_identical(self, golden, letter):
        tracer = build_ray_partition(
            letter, RayTracerParams(n_triangles=32, image_width=3, image_height=3)
        )
        partitioning = partition_design(tracer.design, SW)
        spec = build_interface_spec(partitioning)
        pinned = golden[f"raytracer_{letter}"]
        assert spec.report() == pinned["report"]
        assert generate_sw_header(spec) == pinned["sw_header"]
        assert generate_hw_arbiter(spec) == pinned["hw_arbiter"]


class TestMultiDomainInterface:
    """Link-granular codegen over the N-domain Vorbis partitions (G, H)."""

    @pytest.fixture(scope="class", params=MULTI_PARTITION_ORDER)
    def partitioned(self, request):
        backend = build_multi_partition(request.param, PARAMS)
        partitioning = partition_design(backend.design, SW)
        return request.param, partitioning, build_interface_spec(partitioning)

    def test_one_link_per_route_pair(self, partitioned):
        letter, partitioning, spec = partitioned
        assert [(l.producer, l.consumer) for l in spec.links] == partitioning.route_pairs()

    def test_per_link_vc_numbering_starts_at_zero(self, partitioned):
        _, _, spec = partitioned
        for link in spec.links:
            assert [ch.link_vc for ch in link.channels] == list(range(link.n_channels))

    def test_wire_vc_ids_stay_global_and_unique(self, partitioned):
        _, _, spec = partitioned
        ids = [ch.vc_id for ch in spec.channels]
        assert ids == list(range(len(ids)))

    def test_one_transactor_pair_per_route(self, partitioned):
        letter, partitioning, spec = partitioned
        pairs = spec.transactor_pairs()
        assert len(pairs) == len(partitioning.route_pairs())
        names = [n for pair in pairs.values() for n in pair]
        assert len(set(names)) == len(names), f"vorbis_{letter} transactor names collide"

    def test_transactor_set_renders_for_every_link(self, partitioned):
        _, _, spec = partitioned
        rendered = generate_transactors(spec)
        assert list(rendered) == [l.name for l in spec.links]
        for link in spec.links:
            tx, rx = rendered[link.name]["tx"], rendered[link.name]["rx"]
            for ch in link.channels:
                assert ch.name in tx and ch.name in rx
            # The endpoint's language follows the engine kind of its domain.
            assert ("module mk" in tx) == spec.is_hw(link.producer)
            assert ("module mk" in rx) == spec.is_hw(link.consumer)

    def test_per_domain_headers_cover_touched_links_only(self, partitioned):
        _, _, spec = partitioned
        for dom in spec.sw_domains:
            header = generate_sw_header(spec, dom)
            for ch in spec.channels:
                sends = f"bcl_send_{ch.name}" in header
                recvs = f"bcl_recv_{ch.name}" in header
                assert sends == (ch.producer == dom)
                assert recvs == (ch.consumer == dom)

    def test_per_domain_arbiters_cover_every_hw_domain(self, partitioned):
        letter, _, spec = partitioned
        module_names = set()
        for dom in spec.hw_domains:
            arbiter = generate_hw_arbiter(spec, dom)
            module_names.add(arbiter.splitlines()[4])
            for link in spec.links_from(dom):
                for ch in link.channels:
                    assert f"rule arbitrate_{ch.name};" in arbiter
            for link in spec.links_to(dom):
                for ch in link.channels:
                    assert f"{ch.name}_in <- mkSizedFIFO" in arbiter
        # Arbiter modules of different hardware domains must be able to coexist.
        assert len(module_names) == len(spec.hw_domains)

    def test_every_channel_lands_on_exactly_one_link(self, partitioned):
        _, _, spec = partitioned
        placed = [ch.name for link in spec.links for ch in link.channels]
        assert sorted(placed) == sorted(ch.name for ch in spec.channels)

    def test_hw_partitions_declare_endpoints_and_are_collision_free(self, partitioned):
        letter, partitioning, spec = partitioned
        for dom in partitioning.domains:
            if dom.name not in spec.hw_domains:
                continue
            code = generate_hw_partition(
                partitioning.design, spec=spec, partitioning=partitioning, domain=dom
            )
            idents = _declared_identifiers(code)
            assert len(set(idents)) == len(idents), f"duplicate identifiers in {dom.name}"
            program = partitioning.program(dom)
            for sync in program.produces_to:
                assert f"// out-endpoint {sync.name}: link" in code
            for sync in program.consumes_from:
                assert f"// in-endpoint {sync.name}: link" in code

    def test_sw_partition_documents_link_granular_endpoints(self, partitioned):
        _, partitioning, spec = partitioned
        sw_dom = next(d for d in partitioning.domains if d.name == "SW")
        code = generate_sw_partition(
            partitioning.design, spec=spec, partitioning=partitioning, domain=sw_dom
        )
        program = partitioning.program(sw_dom)
        for sync in program.produces_to:
            assert f"bcl_send_{sync.name}: link" in code
        for sync in program.consumes_from:
            assert f"bcl_recv_{sync.name}: link" in code

    def test_link_params_override_width(self, partitioned):
        letter, partitioning, spec = partitioned
        route = partitioning.route_pairs()[0]
        wide = ChannelParams(word_bits=64)
        respec = build_interface_spec(partitioning, link_params={route: wide})
        link = respec.link(*route)
        assert link.word_bits == 64
        for ch in link.channels:
            assert ch.word_bits == 64
            # Wider words halve the 32-bit payload word count.
            narrow = spec.link(*route).channels[ch.link_vc]
            assert ch.payload_words <= narrow.payload_words
        header = generate_sw_header(respec, "SW")
        if any(ch.producer == "SW" or ch.consumer == "SW" for ch in link.channels):
            assert "_WORD_BITS 64" in header


def _spec_with_channels(channels, hw_domains=("HW",), sw_domains=("SW",)):
    links = {}
    for ch in channels:
        links.setdefault((ch.producer, ch.consumer), []).append(ch)
    return InterfaceSpec(
        design_name="synthetic",
        channels=list(channels),
        links=[
            LinkSpec(producer=src, consumer=dst, channels=chs)
            for (src, dst), chs in links.items()
        ],
        hw_domains=list(hw_domains),
        sw_domains=list(sw_domains),
    )


def _channel(vc_id, name, producer="SW", consumer="HW", link_vc=0):
    return ChannelSpec(
        vc_id=vc_id,
        name=name,
        producer=producer,
        consumer=consumer,
        element_type="UInt#(32)",
        payload_words=1,
        message_words=2,
        depth=2,
        link_vc=link_vc,
    )


class TestIdentifierSanitization:
    def test_case_colliding_macros_are_rejected(self):
        spec = _spec_with_channels([_channel(0, "data"), _channel(1, "DATA", link_vc=1)])
        with pytest.raises(CodegenError, match="collides"):
            generate_sw_header(spec)

    def test_non_identifier_characters_are_sanitized(self):
        spec = _spec_with_channels([_channel(0, "q-pre.1")])
        header = generate_sw_header(spec)
        assert "#define BCL_VC_Q_PRE_1 0" in header
        assert "bcl_send_q_pre_1" in header

    def test_sanitization_collisions_are_rejected(self):
        spec = _spec_with_channels([_channel(0, "q.x"), _channel(1, "q-x", link_vc=1)])
        with pytest.raises(CodegenError, match="collides"):
            generate_sw_header(spec)

    def test_arbiter_detects_collisions_too(self):
        spec = _spec_with_channels(
            [
                _channel(0, "out.q", producer="HW", consumer="SW"),
                _channel(1, "out-q", producer="HW", consumer="SW", link_vc=1),
            ]
        )
        with pytest.raises(CodegenError, match="collides"):
            generate_hw_arbiter(spec)

    def test_ambiguous_domain_requires_explicit_choice(self):
        spec = _spec_with_channels(
            [_channel(0, "a", producer="HW_X", consumer="HW_Y")],
            hw_domains=("HW_X", "HW_Y"),
        )
        with pytest.raises(CodegenError, match="explicitly"):
            generate_hw_arbiter(spec)
        assert "mkHwXInterface" in generate_hw_arbiter(spec, "HW_X")

    def test_wrong_kind_domain_is_rejected(self):
        spec = _spec_with_channels([_channel(0, "a")])
        with pytest.raises(CodegenError, match="not a sw domain"):
            generate_sw_header(spec, "HW")


class TestBsvNameQualification:
    @pytest.fixture
    def colliding_design(self):
        top = Module("top")
        stage_a = top.add_submodule(Module("stage_a"))
        stage_b = top.add_submodule(Module("stage_b"))
        cnt_a = stage_a.add_register("cnt", UIntT(32), 0)
        cnt_b = stage_b.add_register("cnt", UIntT(32), 0)
        stage_a.add_rule(
            "tick_a",
            cnt_a.write(BinOp("+", RegRead(cnt_a), Const(1)))
            .when(BinOp("<", RegRead(cnt_a), Const(4))),
        )
        stage_b.add_rule(
            "tick_b",
            cnt_b.write(BinOp("+", RegRead(cnt_b), Const(2)))
            .when(BinOp("<", RegRead(cnt_b), Const(4))),
        )
        return Design(top, "collide")

    def test_duplicate_registers_are_qualified_by_module(self, colliding_design):
        code = generate_hw_partition(colliding_design)
        idents = _declared_identifiers(code)
        assert len(set(idents)) == len(idents)
        assert "stage_a_cnt" in idents and "stage_b_cnt" in idents

    def test_rule_bodies_use_the_qualified_names(self, colliding_design):
        code = generate_hw_partition(colliding_design)
        assert "stage_a_cnt <= (stage_a_cnt + 1);" in code
        assert "stage_b_cnt <= (stage_b_cnt + 2);" in code
        # The bare name must not survive anywhere a register is referenced.
        assert not re.search(r"(?<![a-z_])cnt(?![a-z_])", code)

    def test_unique_registers_keep_their_bare_names(self, simple_design):
        design, *_ = simple_design
        code = generate_hw_partition(design)
        assert re.search(r"Reg#\(.*\) cnt <- mkReg", code)

    def test_endpoint_fifo_colliding_with_register_is_qualified(self):
        """A cut synchronizer and a register sharing a name must not emit two
        declarations of one identifier (nor be conflated in rule bodies)."""
        from repro.core.synchronizers import SyncFifo

        top = Module("top")
        producer = top.add_submodule(Module("producer", domain=SW))
        consumer = top.add_submodule(Module("consumer", domain=HW))
        sync = top.add_submodule(SyncFifo("x_q", UIntT(32), SW, HW, depth=2))
        cnt = producer.add_register("cnt", UIntT(32), 0)
        x_q = consumer.add_register("x_q", UIntT(32), 0)
        producer.add_rule(
            "produce",
            par(sync.call("enq", RegRead(cnt)), cnt.write(BinOp("+", RegRead(cnt), Const(1))))
            .when(BinOp("<", RegRead(cnt), Const(2))),
        )
        consumer.add_rule("consume", par(x_q.write(sync.value("first")), sync.call("deq")))
        design = Design(top, "shadowed")
        partitioning = partition_design(design, SW)
        spec = build_interface_spec(partitioning)
        code = generate_hw_partition(design, spec=spec, partitioning=partitioning, domain=HW)
        idents = _declared_identifiers(code)
        assert len(set(idents)) == len(idents)
        # Register and endpoint both qualified apart; the rule references the register's name.
        assert "consumer_x_q" in idents
        assert "consumer_x_q <= " in code

    def test_num_virtual_channels_bounds_the_wire_ids(self):
        """The table-size macro covers the global wire vc-id space, so every
        BCL_VC_* defined in a per-domain header indexes in bounds."""
        backend = build_multi_partition("H", PARAMS)
        partitioning = partition_design(backend.design, SW)
        spec = build_interface_spec(partitioning)
        header = generate_sw_header(spec, "SW")
        n_total = spec.n_channels
        assert f"#define BCL_NUM_VIRTUAL_CHANNELS {n_total}" in header
        assert "#define BCL_NUM_LOCAL_CHANNELS 2" in header
        for line in header.splitlines():
            m = re.fullmatch(r"#define BCL_VC_(\w+) (\d+)", line)
            if m and not m.group(1).endswith(("_PAYLOAD_WORDS", "_DEPTH", "_WORD_BITS")):
                assert int(m.group(2)) < n_total

    def test_wide_link_prototypes_use_matching_word_type(self):
        """payload_words counts link words, so the C buffer type must match
        the link width (uint32_t[16] for a 1024-bit message would be half-sized)."""
        backend = build_multi_partition("G", PARAMS)
        partitioning = partition_design(backend.design, SW)
        route = partitioning.route_pairs()[0]  # SW -> HW_IMDCT
        spec = build_interface_spec(
            partitioning, link_params={route: ChannelParams(word_bits=64)}
        )
        header = generate_sw_header(spec, "SW")
        ch = spec.link(*route).channels[0]
        assert f"int bcl_send_{ch.name}(const uint64_t payload[{ch.payload_words}]);" in header
        tx = generate_transactors(spec)[spec.link(*route).name]["tx"]
        assert "uint64_t" in tx

    @pytest.mark.parametrize("letter", MULTI_PARTITION_ORDER)
    def test_vorbis_multidomain_partitions_have_no_duplicate_identifiers(self, letter):
        backend = build_multi_partition(letter, PARAMS)
        partitioning = partition_design(backend.design, SW)
        spec = build_interface_spec(partitioning)
        for dom in partitioning.domains:
            if dom.name not in spec.hw_domains:
                continue
            code = generate_hw_partition(
                backend.design, spec=spec, partitioning=partitioning, domain=dom
            )
            idents = _declared_identifiers(code)
            assert len(set(idents)) == len(idents), (letter, dom.name)


class TestMarshalingCodegen:
    """The generated interfaces carry real marshaling loops, rendered from
    the same MessageLayout the simulator's dataplane packs with."""

    @pytest.fixture(scope="class")
    def spec(self):
        backend = build_partition("A", PARAMS)
        partitioning = partition_design(backend.design, SW)
        return build_interface_spec(partitioning)

    def test_marshal_source_implements_every_declared_helper(self, spec):
        header = generate_sw_header(spec)
        source = generate_sw_marshal_source(spec)
        for line in header.splitlines():
            m = re.match(r"int (bcl_(?:send|recv)_\w+)\(", line)
            if m:
                assert f"int {m.group(1)}(" in source, f"{m.group(1)} not implemented"

    def test_pack_functions_embed_the_simulators_header_word(self, spec):
        from repro.platform.marshal import wire_header

        source = generate_sw_marshal_source(spec)
        for ch in spec.channels:
            hexval = f"0x{wire_header(ch.vc_id, ch.payload_words):08X}u"
            assert hexval in source, f"{ch.name}: header constant missing or wrong"

    def test_marshal_source_renders_real_loops_not_stubs(self, spec):
        source = generate_sw_marshal_source(spec)
        assert "for (unsigned i = 0;" in source
        assert "msg[1u + i] = payload[i];" in source
        assert "return -1;" in source  # header validation on the receive path

    def test_field_position_macros_come_from_the_layout(self, spec):
        from repro.platform.marshal import layout_for

        source = generate_sw_marshal_source(spec)
        ch = spec.channels[0]  # q_pre: Vector#(64, Complex#(FixPt#(8,24)))
        layout = layout_for(ch.ty, ch.word_bits)
        for leaf in layout.fields:
            stem = f"BCL_{ch.macro.upper()}_{leaf.path.replace('[*]', '').strip('.').upper()}"
            assert f"#define {stem}_LSB {leaf.bit_offset}" in source
            assert f"#define {stem}_BITS {leaf.bit_width}" in source
            if leaf.count > 1:
                assert f"#define {stem}_STRIDE {leaf.stride}" in source

    def test_hw_transactors_render_marshal_and_dispatch_rules(self):
        backend = build_multi_partition("H", PARAMS)
        partitioning = partition_design(backend.design, SW)
        spec = build_interface_spec(partitioning)
        rendered = generate_transactors(spec)
        for link in spec.links:
            if spec.is_hw(link.producer):
                tx = rendered[link.name]["tx"]
                for ch in link.channels:
                    assert f"rule marshal_{ch.macro}_header" in tx
                    assert f"rule marshal_{ch.macro}_word" in tx
                    assert f"{ch.word_bits}'h{ch.vc_id << 16 | ch.payload_words:X}" in tx
            if spec.is_hw(link.consumer):
                rx = rendered[link.name]["rx"]
                assert "rule demarshal_header" in rx
                for ch in link.channels:
                    assert f"rule dispatch_{ch.macro} (rx_valid && rx_vc == {ch.vc_id}" in rx

    def test_multi_channel_tx_emits_round_robin_arbiter(self):
        """Several channels on one link get an explicit grant-passing arbiter."""
        backend = build_ray_partition(
            "B", RayTracerParams(n_triangles=24, image_width=3, image_height=3)
        )
        partitioning = partition_design(backend.design, SW)
        spec = build_interface_spec(partitioning)
        rendered = generate_transactors(spec)
        checked = 0
        for link in spec.links:
            if not (spec.is_hw(link.producer) and link.n_channels > 1):
                continue
            tx = rendered[link.name]["tx"]
            checked += 1
            assert "Reg#(Bit#" in tx and "tx_grant <- mkReg(0);" in tx
            # FIFOF endpoints: the yield rule needs notEmpty.
            assert "import FIFOF::*;" in tx and "mkSizedFIFOF" in tx
            for slot, ch in enumerate(link.channels):
                next_slot = (slot + 1) % link.n_channels
                # The header rule fires only while holding the grant...
                assert (
                    f"rule marshal_{ch.macro}_header (tx_grant == {slot} "
                    f"&& {ch.macro}_mleft == 0);" in tx
                )
                # ...the grant passes with the message's last payload word...
                assert (
                    f"if ({ch.macro}_mleft == 1) tx_grant <= {next_slot};" in tx
                )
                # ...and an idle granted channel yields its turn.
                assert (
                    f"rule yield_{ch.macro} (tx_grant == {slot} && "
                    f"{ch.macro}_mleft == 0 && !{ch.macro}_out.notEmpty);" in tx
                )
        assert checked >= 1, "raytracer B should have a multi-channel hw link"

    def test_single_channel_tx_has_no_arbiter(self):
        """A link with one channel needs no arbitration: no grant register."""
        backend = build_multi_partition("H", PARAMS)
        partitioning = partition_design(backend.design, SW)
        spec = build_interface_spec(partitioning)
        rendered = generate_transactors(spec)
        checked = 0
        for link in spec.links:
            if spec.is_hw(link.producer) and link.n_channels == 1:
                tx = rendered[link.name]["tx"]
                checked += 1
                assert "tx_grant" not in tx and "rule yield_" not in tx
                assert "import FIFO::*;" in tx and "mkSizedFIFO(" in tx
        assert checked >= 1

    def test_sw_transactors_are_self_contained_implementations(self, spec):
        rendered = generate_transactors(spec)
        for link in spec.links:
            if not spec.is_hw(link.producer):
                tx = rendered[link.name]["tx"]
                assert "static inline int" in tx and "_write_words(" in tx
            if not spec.is_hw(link.consumer):
                rx = rendered[link.name]["rx"]
                assert "static inline int" in rx and "_read_words(" in rx

    def test_narrow_link_params_fail_at_spec_build_time(self):
        from repro.core.errors import WireFormatError

        backend = build_partition("A", PARAMS)
        partitioning = partition_design(backend.design, SW)
        route = partitioning.route_pairs()[0]
        with pytest.raises(WireFormatError):
            build_interface_spec(
                partitioning, link_params={route: ChannelParams(word_bits=16)}
            )

    @pytest.mark.skipif(
        shutil.which("cc") is None and shutil.which("gcc") is None,
        reason="no C compiler on PATH",
    )
    @pytest.mark.parametrize("letter", ["A", "B"])
    def test_generated_c_passes_a_real_compiler_syntax_check(self, letter, tmp_path):
        """`cc -fsyntax-only` accepts the generated header, marshal source
        and every software-side transactor -- the Interface Only artifacts
        are compilable as-is."""
        cc = shutil.which("cc") or shutil.which("gcc")
        backend = build_partition(letter, PARAMS)
        partitioning = partition_design(backend.design, SW)
        spec = build_interface_spec(partitioning)
        artifacts = {
            "interface.h": generate_sw_header(spec),
            "marshal.c": generate_sw_marshal_source(spec),
        }
        rendered = generate_transactors(spec)
        for link in spec.links:
            if not spec.is_hw(link.producer):
                artifacts[f"{link.tx_name}.h"] = rendered[link.name]["tx"]
            if not spec.is_hw(link.consumer):
                artifacts[f"{link.rx_name}.h"] = rendered[link.name]["rx"]
        for name, text in artifacts.items():
            path = tmp_path / name
            path.write_text(text)
            proc = subprocess.run(
                [cc, "-fsyntax-only", "-x", "c", str(path)], capture_output=True, text=True
            )
            assert proc.returncode == 0, f"{name}: {proc.stderr}"
