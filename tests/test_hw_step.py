"""The generated hardware cycle against the reference cycle, edge by edge.

``HwEngine.step_cycle`` under ``backend="interp"`` is the oracle.  Under
``backend="source"`` the engine runs a generated cycle with its static
schedule compiled in (:func:`~repro.core.pycodegen.generate_hw_step`):
unrolled candidate evaluation, selection chains from the conflict matrix,
commit tests pruned by the static read/write sets, and FSM latencies
folded into the generated rule functions.  These tests step both engines
in lockstep over a seeded corpus and compare, after every clock edge,
everything a cycle touches: the store, fire counts, active cycles,
firings, the busy table (finish times and deferred updates, in order),
the locked registers, the next finish time and the parked deliveries.

The corpus aims at the commit phase's two same-cycle hazards -- a chosen
rule re-evaluated after an earlier rule committed to what it reads, and a
chosen rule locked out by an earlier rule that deferred its updates -- and
at the latencies only a hardware engine charges: callable ``hw_cycles``
and memories with ``read_latency`` above 1.  It also covers how a rule
function fails: a failed guard at its own level returns None, a let whose
body forces it first binds strictly, and a lazy let's thunk, a
``localGuard`` body and a user method still raise the shared ``GuardFail``.
And it covers where a FIFO's implicit condition must not be tested ahead
of a kernel: in a ``seq`` tail, a ``localGuard`` body, an ``if`` or
``mux`` arm, a lazy let's value and the right operand of ``||``, each
reached by a rule that fires while that condition fails.
"""

import random

import pytest

from repro.core.action import IfA, LetA, LocalGuard, WhenA, par, seq
from repro.core.errors import GuardFail
from repro.core.expr import BinOp, Const, KernelCall, Mux, RegRead, Var, WhenE
from repro.core.module import Design, Module
from repro.core.primitives import Fifo, RegFile
from repro.core.pycodegen import generate_rule_execs
from repro.core.types import UIntT
from repro.sim.hwsim import HwEngine

from test_guards_and_optimize import build_lazy_let


def _add(a, b):
    return BinOp("+", a, b)


def _lt(a, b):
    return BinOp("<", a, b)


def _counted(top, name, limit):
    """A counter register, the action that bumps it and the guard that
    stops it at ``limit``."""
    reg = top.add_register(name, UIntT(32), 0)
    return reg, reg.write(_add(RegRead(reg), Const(1))), _lt(RegRead(reg), Const(limit))


# --------------------------------------------------------------------------
# seeded corpus: each builder returns (design, initial store, feed register)
# --------------------------------------------------------------------------


def fifo_pair(rng):
    """An enqueuer and a dequeuer on one depth-2 FIFO.  ``enq``/``deq``
    do not conflict, so both fire in one cycle, and whichever commits
    second must be re-evaluated against the first one's update."""
    top = Module("pair")
    q = top.add_submodule(Fifo("q", UIntT(32), depth=2))
    cnt, bump, more = _counted(top, "cnt", rng.randint(6, 12))
    total = top.add_register("total", UIntT(32), 0)
    u_produce, u_consume = rng.sample([0, 1], 2)
    top.add_rule(
        "produce", par(q.call("enq", RegRead(cnt)), bump).when(more), urgency=u_produce
    )
    top.add_rule(
        "consume",
        par(total.write(_add(RegRead(total), q.value("first"))), q.call("deq")),
        urgency=u_consume,
    )
    design = Design(top, name="fifo_pair")
    store = design.initial_store()
    store[q.data] = tuple(range(100, 100 + rng.randint(1, 2)))
    return design, store, q.data


def fifo_pair_refused(rng):
    """The pair, but the dequeuer only takes a lone element: when the
    enqueuer commits first, the re-evaluated dequeuer's guard fails.  A
    conflicting drain rule empties a full FIFO."""
    top = Module("refused")
    q = top.add_submodule(Fifo("q", UIntT(32), depth=2))
    cnt, bump, more = _counted(top, "cnt", rng.randint(6, 12))
    total = top.add_register("total", UIntT(32), 0)
    drained = top.add_register("drained", UIntT(32), 0)
    count = q.value("count")
    top.add_rule("produce", par(q.call("enq", RegRead(cnt)), bump).when(more), urgency=1)
    top.add_rule(
        "take_lone",
        par(total.write(_add(RegRead(total), q.value("first"))), q.call("deq")).when(
            BinOp("==", count, Const(1))
        ),
    )
    top.add_rule(
        "drain",
        par(drained.write(_add(RegRead(drained), q.value("first"))), q.call("deq")).when(
            BinOp("==", count, Const(2))
        ),
    )
    design = Design(top, name="fifo_pair_refused")
    store = design.initial_store()
    store[q.data] = (100,)
    return design, store, q.data


def multicycle_enqueue(rng):
    """A multi-cycle enqueuer (its kernel's FSM defers its updates) and a
    lower-urgency dequeuer on the same FIFO: in the cycle the enqueuer
    fires it locks the FIFO, and the dequeuer must wait for the commit."""
    top = Module("multicycle")
    q = top.add_submodule(Fifo("q", UIntT(32), depth=2))
    cnt, bump, more = _counted(top, "cnt", rng.randint(5, 9))
    total = top.add_register("total", UIntT(32), 0)
    scale = KernelCall("scale", lambda v: 3 * v + 1, [RegRead(cnt)], hw_cycles=rng.randint(2, 4))
    top.add_rule("produce", par(q.call("enq", scale), bump).when(more), urgency=1)
    top.add_rule(
        "consume", par(total.write(_add(RegRead(total), q.value("first"))), q.call("deq"))
    )
    design = Design(top, name="multicycle_enqueue")
    store = design.initial_store()
    store[q.data] = (100,)
    return design, store, q.data


def conflict_chain(rng):
    """Three urgency levels: ``high`` conflicts with ``mid``, ``mid`` with
    ``low``, ``high`` not with ``low``.  While ``high`` fires, ``mid`` is
    excluded and ``low`` fires beside it; once ``high`` stops, ``mid``
    excludes ``low``."""
    top = Module("chain")
    a, bump_a, more_a = _counted(top, "a", rng.randint(3, 6))
    b = top.add_register("b", UIntT(32), 0)
    c = top.add_register("c", UIntT(32), 0)
    top.add_rule("high", bump_a.when(more_a), urgency=2)
    top.add_rule(
        "mid",
        b.write(_add(RegRead(b), _add(RegRead(a), Const(1)))).when(
            _lt(RegRead(b), Const(rng.randint(20, 40)))
        ),
        urgency=1,
    )
    top.add_rule(
        "low",
        c.write(_add(RegRead(c), RegRead(b))).when(_lt(RegRead(c), Const(500))),
        urgency=0,
    )
    design = Design(top, name="conflict_chain")
    return design, design.initial_store(), None


def folded_latencies(rng):
    """FSM latencies only the hardware engine charges: a kernel with a
    callable ``hw_cycles`` and a memory with ``read_latency=3``, reached
    directly, inside a lazy let, inside a user method, and inside a local
    guard whose body charges and then fails."""
    top = Module("lat")
    init = [rng.randrange(50) for _ in range(8)]
    mem = top.add_submodule(RegFile("mem", UIntT(32), size=8, init=init, read_latency=3))
    helper = top.add_submodule(Module("helper"))
    hacc = helper.add_register("hacc", UIntT(32), 0)

    def cycles(v):
        return 1 + v % 4

    def kernel(name, arg):
        return KernelCall(name, lambda v: (5 * v + 3) % 97, [arg], hw_cycles=cycles)

    def slot(reg):
        return BinOp("%", RegRead(reg), Const(8))

    helper.add_method(
        "absorb",
        "action",
        params=["x"],
        body=hacc.write(_add(RegRead(hacc), kernel("absorb", mem.value("sub", Var("x"))))),
        guard=_lt(RegRead(hacc), Const(10_000)),
    )
    acc = top.add_register("acc", UIntT(32), 0)
    lazy = top.add_register("lazy", UIntT(32), 0)
    flag = top.add_register("flag", UIntT(32), 0)
    limit = rng.randint(6, 10)
    i, bump_i, more_i = _counted(top, "i", limit)
    j, bump_j, more_j = _counted(top, "j", limit)
    k, bump_k, more_k = _counted(top, "k", limit)
    g, bump_g, more_g = _counted(top, "g", limit)
    top.add_rule(
        "direct", par(acc.write(kernel("direct", mem.value("sub", slot(i)))), bump_i).when(more_i)
    )
    top.add_rule(
        "in_let",
        LetA(
            "t",
            kernel("in_let", RegRead(acc)),
            par(lazy.write(_add(Var("t"), mem.value("sub", slot(j)))), bump_j),
        ).when(more_j),
    )
    top.add_rule(
        "via_method", par(helper.call("absorb", slot(k)), bump_k).when(more_k), urgency=1
    )
    top.add_rule(
        "guarded",
        par(
            LocalGuard(
                par(
                    mem.call("upd", slot(g), kernel("guarded", RegRead(g))),
                    WhenA(flag.write(RegRead(g)), BinOp("==", slot(g), Const(rng.randrange(8)))),
                )
            ),
            bump_g,
        ).when(more_g),
    )
    design = Design(top, name="folded_latencies")
    return design, design.initial_store(), None


def failing_lets(rng):
    """Lets whose value fails, and local guards, under a clock whose phase
    the guards read.  ``strict``'s body forces its let first, so the let
    binds strictly and a failed value returns from the rule function;
    ``guard_first``'s body fails another guard before forcing its let;
    ``in_local``'s let is bound inside a ``localGuard`` body that enters a
    memory method (charging its read latency) before forcing the let, so
    the charge stays when the value fails; ``local_top``'s ``localGuard``
    body fails at its own level."""
    top = Module("lets")
    init = [rng.randrange(50) for _ in range(8)]
    mem = top.add_submodule(RegFile("mem", UIntT(32), size=8, init=init, read_latency=3))
    t, bump_t, more_t = _counted(top, "t", 40)
    top.add_rule("clock", bump_t.when(more_t))

    def on_phase(shift):
        # True on two of every three clock values.
        return BinOp("!=", BinOp("%", _add(RegRead(t), Const(shift)), Const(3)), Const(0))

    def kernel(name, reg):
        return KernelCall(
            name, lambda v: (7 * v + 2) % 89, [RegRead(reg)], hw_cycles=lambda v: 1 + v % 3
        )

    limit = rng.randint(5, 8)
    rules = {}
    for name in ("strict", "guard_first", "in_local", "local_top"):
        n, bump, more = _counted(top, f"n_{name}", limit)
        out = top.add_register(f"out_{name}", UIntT(32), 0)
        rules[name] = (n, bump, more, out)
    n, bump, more, out = rules["strict"]
    value = WhenE(kernel("strict", n), on_phase(0))
    body = par(out.write(_add(Var("v"), RegRead(out))), bump)
    top.add_rule("strict", LetA("v", value, body).when(more))
    n, bump, more, out = rules["guard_first"]
    value = WhenE(kernel("guard_first", n), on_phase(1))
    body = WhenA(par(out.write(Var("v")), bump), on_phase(2))
    top.add_rule("guard_first", LetA("v", value, body).when(more))
    n, bump, more, _ = rules["in_local"]
    value = WhenE(kernel("in_local", n), on_phase(2))
    body = mem.call("upd", BinOp("%", Var("v"), Const(8)), RegRead(n))
    top.add_rule("in_local", par(LocalGuard(LetA("v", value, body)), bump).when(more))
    n, bump, more, out = rules["local_top"]
    body = WhenA(out.write(kernel("local_top", n)), on_phase(1))
    top.add_rule("local_top", par(LocalGuard(body), bump).when(more))
    design = Design(top, name="failing_lets")
    return design, design.initial_store(), None


def lazy_let(rng):
    """A let never forced while its value's guard fails: the rule fires."""
    design = build_lazy_let()
    return design, design.initial_store(), None


def _on_phase(clock, period, shift=0):
    return BinOp("==", BinOp("%", _add(RegRead(clock), Const(shift)), Const(period)), Const(0))


def _lifting_probe(name, rng):
    """A FIFO ``q``, full at first, that ``fill`` and ``drain`` fill and
    empty at seeded phases of a clock, and ``probe(rule, build)``, which
    adds a rule that calls a kernel and runs ``build(n)`` beside it, ``n``
    being the rule's own firing counter.  The kernel is evaluated
    unconditionally, so it is where the rule tests the implicit conditions
    it lifts; a condition of ``build(n)`` tested there would turn the rule
    away in states where it fires.  A probe outranks the FIFO's other
    users, which outrank the clock: a rule that reads the clock conflicts
    with it."""
    top = Module(name)
    depth = rng.randint(1, 2)
    q = top.add_submodule(Fifo("q", UIntT(32), depth=depth))
    t, bump_t, more_t = _counted(top, "t", 100)
    top.add_rule("clock", bump_t.when(more_t))
    fill = q.call("enq", RegRead(t)).when(_on_phase(t, rng.randint(2, 3)))
    top.add_rule("fill", fill, urgency=1)
    top.add_rule("drain", q.call("deq").when(_on_phase(t, rng.randint(3, 4), 1)), urgency=1)
    hw_cycles = rng.randint(1, 2)

    def probe(rule, build):
        n, bump, more = _counted(top, f"n_{rule}", 30)
        acc = top.add_register(f"acc_{rule}", UIntT(32), 0)
        kernel = KernelCall(rule, lambda v: (3 * v + 1) % 101, [RegRead(n)], hw_cycles=hw_cycles)
        top.add_rule(rule, par(acc.write(kernel), bump, build(n)).when(more), urgency=2)

    def design():
        built = Design(top, name=name)
        store = built.initial_store()
        store[q.data] = tuple(range(depth))
        return built, store, q.data

    return top, q, probe, design


def seq_tail(rng):
    """``deq`` then ``enq`` in sequence: the ``enq`` sees the room the
    ``deq`` made, so the rule fires on a full FIFO."""
    _, q, probe, design = _lifting_probe("seq_tail", rng)
    probe("rotate", lambda n: seq(q.call("deq"), q.call("enq", RegRead(n))))
    return design()


def local_guard_body(rng):
    """An ``enq`` in a ``localGuard`` body after a memory write that
    charges its read latency: on a full FIFO the body is dropped, its
    charge is kept and the rule fires."""
    top, q, probe, design = _lifting_probe("local_guard_body", rng)
    mem = top.add_submodule(RegFile("mem", UIntT(32), size=4, read_latency=3))

    def build(n):
        write = mem.call("upd", BinOp("%", RegRead(n), Const(4)), RegRead(n))
        return LocalGuard(par(write, q.call("enq", Const(7))))

    probe("guarded", build)
    return design()


def if_arm(rng):
    """A ``deq`` in an ``if`` arm and a ``first`` in a ``mux`` arm, each
    under ``notEmpty``: the rules fire on an empty FIFO."""
    top, q, probe, design = _lifting_probe("if_arm", rng)
    probe("maybe_deq", lambda n: IfA(q.value("notEmpty"), q.call("deq")))
    peek = top.add_register("peek", UIntT(32), 0)
    probe("peek", lambda n: peek.write(Mux(q.value("notEmpty"), q.value("first"), Const(0))))
    return design()


def lazy_let_value(rng):
    """A let of ``first`` whose body forces it on one phase of the rule's
    counter: off that phase the rule fires on an empty FIFO."""
    top, q, probe, design = _lifting_probe("lazy_let_value", rng)
    seen = top.add_register("seen", UIntT(32), 0)

    def build(n):
        return LetA("v", q.value("first"), IfA(_on_phase(n, 3), seen.write(Var("v"))))

    probe("peek_later", build)
    return design()


def or_right(rng):
    """``first`` as the right operand of ``||``: on the phase of the rule's
    counter that short-circuits it the rule fires on an empty FIFO."""
    top, q, probe, design = _lifting_probe("or_right", rng)
    either = top.add_register("either", UIntT(32), 0)

    def build(n):
        test = BinOp("||", _on_phase(n, 2), BinOp("==", q.value("first"), Const(0)))
        return either.write(Mux(test, Const(1), Const(2)))

    probe("either", build)
    return design()


def _state(engine):
    """Everything a cycle reads or writes, keyed by names."""
    return (
        {reg.full_name: value for reg, value in engine.store.items()},
        dict(engine.fire_counts),
        engine.cycles_active,
        engine.total_firings,
        [
            (rule.full_name, finish, {reg.full_name: v for reg, v in updates.items()})
            for rule, (finish, updates) in engine.busy.items()
        ],
        sorted(reg.full_name for reg in engine._locked),
        engine._next_finish,
        [(reg.full_name, item) for reg, item in engine._pending_deliveries],
    )


def run_lockstep(build, seed, edges=60, fired=None):
    """Step an interp and a source engine over one seeded corpus design,
    comparing their state after every clock edge.  Returns the oracle and
    the latency of every commit it deferred; ``fired``, when given,
    collects ``(rule name, feed register's value)`` for every firing,
    the value as the firing edge began.

    Rules are handed over in a seeded order, so engine order and urgency
    order differ.  A design with a feed register gets seeded deliveries
    between edges (parked while a busy rule holds the register), and the
    clock skips idle stretches to the next finish time, as the fabric's
    event loop does.
    """
    rng = random.Random(seed)
    design, store, feed = build(rng)
    rules = list(design.all_rules())
    rng.shuffle(rules)
    engines = [HwEngine(rules, dict(store), backend=backend) for backend in ("interp", "source")]
    oracle, generated = engines
    latencies = []
    now = 0.0
    for edge in range(edges):
        before = {rule: finish for rule, (finish, _) in oracle.busy.items()}
        counts = dict(oracle.fire_counts)
        feed_value = None if feed is None else oracle.store[feed]
        progress = [engine.step_cycle(now) for engine in engines]
        if fired is not None:
            for rule in oracle.rules:
                if oracle.fire_counts[rule.full_name] > counts[rule.full_name]:
                    fired.append((rule.name, feed_value))
        assert progress[1] == progress[0], f"edge {edge} at {now}"
        assert _state(generated) == _state(oracle), f"edge {edge} at {now}"
        for engine in engines:
            # The busy rules' write sets are disjoint: the lock set holds
            # each register once, so unlocking a rule frees all of its own.
            held = sum(len(engine._write_sets[rule]) for rule in engine.busy)
            assert len(engine._locked) == held, f"edge {edge} at {now}"
        latencies += [
            finish - now
            for rule, (finish, _) in oracle.busy.items()
            if before.get(rule) != finish
        ]
        if feed is not None and rng.random() < 0.3:
            for engine in engines:
                engine.deliver(feed, 1000 + edge, now)
        due = oracle.next_completion_time()
        now = max(now + 1.0, due) if not any(progress) and due is not None else now + 1.0
    return oracle, latencies


CORPUS = {
    "fifo_pair": fifo_pair,
    "fifo_pair_refused": fifo_pair_refused,
    "multicycle_enqueue": multicycle_enqueue,
    "conflict_chain": conflict_chain,
    "folded_latencies": folded_latencies,
    "failing_lets": failing_lets,
    "lazy_let": lazy_let,
    "seq_tail": seq_tail,
    "local_guard_body": local_guard_body,
    "if_arm": if_arm,
    "lazy_let_value": lazy_let_value,
    "or_right": or_right,
}
SEEDS = range(6)


class TestGeneratedCycle:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("case", sorted(CORPUS))
    def test_source_cycle_matches_reference_every_edge(self, case, seed):
        oracle, _ = run_lockstep(CORPUS[case], seed)
        assert oracle.total_firings > 0

    def test_corpus_reaches_the_same_cycle_hazards(self):
        """The corpus is not vacuous: both rules of the pair fire in one
        cycle, the refused dequeuer is refused after being chosen, the
        multi-cycle enqueuer locks the dequeuer out, both ends of the
        conflict chain fire together, and callable and memory latencies
        defer commits."""
        # fifo_pair: some edge fires both rules (two firings, one edge).
        oracle = HwEngine(*_rules_store(fifo_pair, 0), backend="interp")
        assert any(_fired(oracle, now) == 2 for now in map(float, range(8)))
        # fifo_pair_refused: produce and take_lone are both enabled at
        # the first edge, but only produce fires.
        engine = HwEngine(*_rules_store(fifo_pair_refused, 0), backend="source")
        assert engine.step_cycle(0.0)
        assert engine.fire_counts["refused.produce"] == 1
        assert engine.fire_counts["refused.take_lone"] == 0
        # multicycle_enqueue: produce defers; consume waits for its commit.
        engine = HwEngine(*_rules_store(multicycle_enqueue, 0), backend="source")
        assert engine.step_cycle(0.0)
        assert engine.total_firings == 1 and len(engine.busy) == 1
        # conflict_chain: high and low fire in the first edge, mid does not.
        engine = HwEngine(*_rules_store(conflict_chain, 0), backend="source")
        assert engine.step_cycle(0.0)
        assert {name for name, n in engine.fire_counts.items() if n} == {
            "chain.high",
            "chain.low",
        }
        # folded_latencies: deferred commits with several latencies, some
        # above what one kernel's callable cost reaches on its own.
        _, latencies = run_lockstep(folded_latencies, 0)
        assert len(set(latencies)) >= 3 and max(latencies) > 4

    def test_boundary_rules_fire_where_a_lifted_test_fails(self):
        """The lifting-boundary cases are not vacuous: at half the seeds or
        more, each one's rule fires in an edge that begins with the FIFO
        full (its ``enq``'s ``notFull`` fails) or empty (the ``notEmpty``
        of its ``first`` or ``deq`` fails), so testing that call's
        condition at the rule's kernel would turn it away."""
        for case, rule, refusing in (
            ("seq_tail", "rotate", "full"),
            ("local_guard_body", "guarded", "full"),
            ("if_arm", "maybe_deq", "empty"),
            ("if_arm", "peek", "empty"),
            ("lazy_let_value", "peek_later", "empty"),
            ("or_right", "either", "empty"),
        ):
            seeds = 0
            for seed in SEEDS:
                fired = []
                oracle, _ = run_lockstep(CORPUS[case], seed, fired=fired)
                (fifo,) = {reg.parent for reg in oracle.store if reg.name == "data"}
                seeds += any(
                    len(value) >= fifo.depth if refusing == "full" else not value
                    for name, value in fired
                    if name == rule
                )
            assert seeds >= len(SEEDS) // 2, (case, rule, seeds)

    def test_failing_lets_fail_as_lowered(self):
        """How each failing-let rule fails, called alone at a clock value
        where its guard fails: ``strict``'s failed value and
        ``guard_first``'s failed body guard return None, ``guard_first``'s
        failed thunk raises, ``in_local``'s ``localGuard`` drops its body
        but keeps the read latency charged before the failure, and
        ``local_top``'s drops its body.  Only the units that keep a raise
        site are called under a handler."""
        design, store, _ = failing_lets(random.Random(0))
        engine = HwEngine(list(design.all_rules()), dict(store), backend="source")
        execs, _ = generate_rule_execs(engine.rules, "lets")
        by_name = {ex.rule.name: ex for ex in execs}
        clock = next(reg for reg in store if reg.name == "t")

        def attempt(name, t):
            cell = [0]
            updates = by_name[name].latency({**store, clock: t}.__getitem__, cell)
            return None if updates is None else sorted(reg.name for reg in updates), cell[0]

        assert attempt("strict", 0) == (None, 0)
        assert attempt("guard_first", 1) == (None, 0)
        with pytest.raises(GuardFail):
            attempt("guard_first", 2)
        assert attempt("in_local", 1) == (["n_in_local"], 2)
        assert attempt("local_top", 2) == (["n_local_top"], 0)
        raising = {name for name, ex in by_name.items() if ex.raises}
        assert raising == {"guard_first", "in_local", "local_top"}
        step = engine._step_gen.source
        assert step.count("except GuardFail:") == len(raising)

    def test_full_fifo_turns_its_producer_away_before_the_kernel(self):
        """Backpressure: a counting kernel feeds an ``enq`` on a depth-1
        FIFO that a slow consumer drains.  The generated cycle never calls
        the kernel in an edge that starts with the FIFO full, and calls it
        once per firing; the oracle, which evaluates a kernel before the
        ``enq`` it feeds, calls it more often, with the same results."""
        calls = [0]

        def scale(v):
            calls[0] += 1
            return 3 * v + 1

        top = Module("backpressure")
        q = top.add_submodule(Fifo("q", UIntT(32), depth=1))
        t, bump_t, more_t = _counted(top, "t", 100)
        cnt, bump, more = _counted(top, "cnt", 20)
        top.add_rule("clock", bump_t.when(more_t))
        produce = par(q.call("enq", KernelCall("scale", scale, [RegRead(cnt)])), bump)
        top.add_rule("produce", produce.when(more), urgency=2)
        top.add_rule("consume", q.call("deq").when(_on_phase(t, 3)), urgency=1)
        design = Design(top, name="backpressure")
        store = design.initial_store()
        engines = {
            backend: HwEngine(list(design.all_rules()), dict(store), backend=backend)
            for backend in ("interp", "source")
        }
        kernel_calls = dict.fromkeys(engines, 0)
        full_edges = 0
        for edge in range(100):
            full = len(engines["source"].store[q.data]) == q.depth
            full_edges += full
            for backend, engine in engines.items():
                before = calls[0]
                engine.step_cycle(float(edge))
                kernel_calls[backend] += calls[0] - before
                if full and backend == "source":
                    assert calls[0] == before, f"edge {edge}"
            assert _state(engines["source"]) == _state(engines["interp"]), f"edge {edge}"
        fired = engines["source"].fire_counts["backpressure.produce"]
        assert fired == 20 and full_edges > 20
        assert kernel_calls["source"] == fired
        assert kernel_calls["interp"] > 2 * fired


def _rules_store(build, seed):
    design, store, _ = build(random.Random(seed))
    return list(design.all_rules()), store


def _fired(engine, now):
    before = engine.total_firings
    engine.step_cycle(now)
    return engine.total_firings - before
