"""Tests for the when-axioms, guard lifting and the Section 6.3 optimisations.

The central property: every transformation preserves the one-rule-at-a-time
semantics -- for any state, the transformed rule fires exactly when the
original fires and produces the same updates.  Hypothesis generates random
register states to check this.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.action import IfA, LetA, NoAction, Par, Seq, WhenA, par, seq
from repro.core.ast import Node
from repro.core.errors import GuardFail
from repro.core.expr import BinOp, Const, KernelCall, LetE, Mux, RegRead, UnOp, Var, WhenE
from repro.core.guards import conj, is_true_const, lift_action, lift_expr, may_fail
from repro.core.interpreter import Simulator
from repro.core.module import Design, Module
from repro.core.optimize import (
    OptimizationConfig,
    compile_rule,
    inline_methods,
    sequentialize_action,
)
from repro.core.primitives import Fifo
from repro.core.semantics import Evaluator
from repro.core.types import BoolT, UIntT

from test_compiled_backend import CORPUS, _node_classes


def build_test_module():
    top = Module("top")
    a = top.add_register("a", UIntT(32), 0)
    b = top.add_register("b", UIntT(32), 0)
    flag1 = top.add_register("flag1", BoolT(), False)
    flag2 = top.add_register("flag2", BoolT(), False)
    fifo = top.add_submodule(Fifo("q", UIntT(32), depth=2))
    return top, a, b, flag1, flag2, fifo


def equivalent(action, store):
    """Execute the original and its lifted form; both must agree."""
    evaluator = Evaluator()
    read = lambda reg: store[reg]  # noqa: E731

    def run(act):
        try:
            return True, evaluator.exec_action(act, {}, read, None)
        except GuardFail:
            return False, {}

    fired_orig, updates_orig = run(action)
    body, guard = lift_action(action)
    try:
        guard_ok = bool(evaluator.eval_expr(guard, {}, read, None))
    except GuardFail:
        guard_ok = False
    fired_lifted, updates_lifted = (False, {})
    if guard_ok:
        fired_lifted, updates_lifted = run(body)
    return (fired_orig, updates_orig), (fired_lifted, updates_lifted)


class TestWhenAxioms:
    def test_conj_drops_true(self):
        assert is_true_const(conj(Const(True), Const(True)))

    def test_lift_reg_write_guard(self):
        top, a, b, flag1, flag2, fifo = build_test_module()
        action = a.write(WhenE(Const(5), RegRead(flag1)))  # A.7
        body, guard = lift_action(action)
        assert not is_true_const(guard)
        assert not may_fail(body, primitive_guards_hoisted=True)

    def test_lift_parallel_conjunction(self):
        """A.1/A.2: a guard on one branch guards the whole parallel composition."""
        top, a, b, flag1, flag2, fifo = build_test_module()
        action = Par([WhenA(a.write(Const(1)), RegRead(flag1)), b.write(Const(2))])
        store = {a: 0, b: 0, flag1: False, flag2: False, fifo.data: ()}
        orig, lifted = equivalent(action, store)
        assert orig == lifted == (False, {})

    def test_lift_if_condition_guard_always_evaluated(self):
        """A.4: guards in the predicate of a condition are always evaluated."""
        top, a, b, flag1, flag2, fifo = build_test_module()
        action = IfA(WhenE(RegRead(flag1), RegRead(flag2)), a.write(Const(1)))
        store = {a: 0, b: 0, flag1: True, flag2: False, fifo.data: ()}
        orig, lifted = equivalent(action, store)
        assert orig == lifted

    def test_lift_if_branch_guard_conditional(self):
        """A.5: a branch guard only matters when the branch is selected."""
        top, a, b, flag1, flag2, fifo = build_test_module()
        action = IfA(RegRead(flag1), WhenA(a.write(Const(1)), RegRead(flag2)))
        # flag1 false: the branch guard must not matter.
        store = {a: 0, b: 0, flag1: False, flag2: False, fifo.data: ()}
        orig, lifted = equivalent(action, store)
        assert orig == lifted
        assert orig == (True, {})

    def test_lift_when_merging(self):
        """A.6: nested whens conjoin."""
        top, a, b, flag1, flag2, fifo = build_test_module()
        action = WhenA(WhenA(a.write(Const(1)), RegRead(flag1)), RegRead(flag2))
        body, guard = lift_action(action)
        assert not may_fail(body, primitive_guards_hoisted=True)

    def test_sequential_guard_lifts_first_only(self):
        """A.3: only the first action's guard crosses a sequential composition."""
        top, a, b, flag1, flag2, fifo = build_test_module()
        action = Seq([WhenA(a.write(Const(1)), RegRead(flag1)), WhenA(b.write(Const(2)), RegRead(flag2))])
        body, guard = lift_action(action)
        assert isinstance(body, Seq)
        assert may_fail(body, primitive_guards_hoisted=True)  # second when is residual

    def test_fifo_readiness_hoisted(self):
        top, a, b, flag1, flag2, fifo = build_test_module()
        action = par(fifo.call("enq", Const(1)), a.write(fifo.value("first")))
        body, guard = lift_action(action)
        assert not is_true_const(guard)
        assert not may_fail(body, primitive_guards_hoisted=True)

    @given(st.booleans(), st.booleans(), st.integers(0, 3), st.integers(0, 10))
    @settings(max_examples=80, deadline=None)
    def test_lifting_preserves_semantics_property(self, f1, f2, occupancy, value):
        top, a, b, flag1, flag2, fifo = build_test_module()
        action = Par(
            [
                IfA(RegRead(flag1), WhenA(a.write(Const(value)), RegRead(flag2))),
                fifo.call("enq", BinOp("+", RegRead(a), Const(1))),
                b.write(Mux(RegRead(flag2), Const(1), Const(2))),
            ]
        )
        store = {
            a: value,
            b: 0,
            flag1: f1,
            flag2: f2,
            fifo.data: tuple(range(occupancy)),
        }
        orig, lifted = equivalent(action, store)
        assert orig == lifted


class TestInlining:
    def test_inline_user_method(self):
        top = Module("top")
        a = top.add_register("a", UIntT(32), 0)
        sub = top.add_submodule(Module("sub"))
        s_reg = sub.add_register("s", UIntT(32), 0)
        sub.add_method(
            "bump", "action", params=["x"], body=s_reg.write(BinOp("+", RegRead(s_reg), Var("x"))),
            guard=BinOp("<", RegRead(s_reg), Const(10)),
        )
        action = sub.call("bump", Const(3))
        inlined = inline_methods(action)
        # After inlining there is no MethodCallA on the user module left.
        from repro.core.action import MethodCallA

        assert not any(
            isinstance(node, MethodCallA) and not node.instance.is_primitive()
            for node in inlined.walk()
        )
        # Semantics preserved.
        evaluator = Evaluator()
        store = {a: 0, s_reg: 4}
        updates = evaluator.exec_action(inlined, {}, lambda r: store[r], None)
        assert updates == {s_reg: 7}

    def test_inline_respects_method_guard(self):
        top = Module("top")
        sub = top.add_submodule(Module("sub"))
        s_reg = sub.add_register("s", UIntT(32), 20)
        sub.add_method(
            "bump", "action", params=["x"], body=s_reg.write(Var("x")),
            guard=BinOp("<", RegRead(s_reg), Const(10)),
        )
        inlined = inline_methods(sub.call("bump", Const(3)))
        evaluator = Evaluator()
        with pytest.raises(GuardFail):
            evaluator.exec_action(inlined, {}, lambda r: {s_reg: 20}[r], None)

    def test_inner_let_shadows_a_parameter(self):
        """Renaming a parameter stops at a ``let`` that rebinds its name."""
        top = Module("top")
        sub = top.add_submodule(Module("sub"))
        s_reg = sub.add_register("s", UIntT(32), 0)
        sub.add_method(
            "put", "action", params=["x"],
            body=seq(s_reg.write(Var("x")), LetA("x", Const(5), s_reg.write(Var("x")))),
        )
        inlined = inline_methods(sub.call("put", Const(3)))
        updates = Evaluator().exec_action(inlined, {}, lambda r: {s_reg: 0}[r], None)
        assert updates == {s_reg: 5}

    def test_primitive_calls_not_inlined(self):
        top, a, b, flag1, flag2, fifo = build_test_module()
        action = fifo.call("enq", Const(1))
        assert isinstance(inline_methods(action), type(action))


class TestSequentialization:
    def test_independent_parallel_becomes_sequential(self):
        top, a, b, flag1, flag2, fifo = build_test_module()
        action = Par([a.write(Const(1)), b.write(Const(2))])
        result = sequentialize_action(action)
        assert isinstance(result, Seq)

    def test_swap_stays_parallel(self):
        """The register swap cannot be sequentialised without shadow state."""
        top, a, b, flag1, flag2, fifo = build_test_module()
        action = Par([a.write(RegRead(b)), b.write(RegRead(a))])
        result = sequentialize_action(action)
        assert isinstance(result, Par)

    def test_reordering_found_when_needed(self):
        """(reader | writer) is sequentialisable as (reader ; writer)."""
        top, a, b, flag1, flag2, fifo = build_test_module()
        action = Par([a.write(Const(5)), b.write(RegRead(a))])
        result = sequentialize_action(action)
        assert isinstance(result, Seq)
        # The reader of `a` must run before the writer of `a`.
        first = result.actions[0]
        assert first.reg is b

    @given(st.integers(0, 50), st.integers(0, 50))
    @settings(max_examples=40, deadline=None)
    def test_sequentialization_preserves_semantics(self, av, bv):
        top, a, b, flag1, flag2, fifo = build_test_module()
        action = Par([a.write(BinOp("+", RegRead(b), Const(1))), b.write(Const(7)), fifo.call("enq", RegRead(a))])
        store = {a: av, b: bv, flag1: False, flag2: False, fifo.data: ()}
        evaluator = Evaluator()
        original = evaluator.exec_action(action, {}, lambda r: store[r], None)
        transformed = evaluator.exec_action(
            sequentialize_action(action), {}, lambda r: store[r], None
        )
        assert original == transformed


class TestCompileRule:
    def test_optimized_rule_needs_no_shadow(self):
        top, a, b, flag1, flag2, fifo = build_test_module()
        rule = top.add_rule("r", par(fifo.call("enq", RegRead(a)), a.write(Const(1))))
        compiled = compile_rule(rule, OptimizationConfig.all())
        assert not compiled.can_fail
        assert compiled.shadow_registers == set()

    def test_naive_rule_shadows_everything_it_writes(self):
        top, a, b, flag1, flag2, fifo = build_test_module()
        design = Design(top)
        rule = top.add_rule("r", par(fifo.call("enq", RegRead(a)), a.write(Const(1))))
        compiled = compile_rule(rule, OptimizationConfig.none(), design.all_registers())
        assert compiled.can_fail
        assert len(compiled.shadow_registers) == len(design.all_registers())

    def test_partial_shadowing_limits_to_write_set(self):
        top, a, b, flag1, flag2, fifo = build_test_module()
        design = Design(top)
        rule = top.add_rule(
            "r", Seq([a.write(Const(1)), WhenA(b.write(Const(2)), RegRead(flag1))])
        )
        compiled = compile_rule(
            rule, OptimizationConfig(lift_guards=True, inline_methods=True, sequentialize=True, partial_shadowing=True),
            design.all_registers(),
        )
        assert compiled.can_fail  # residual guard inside the Seq tail
        assert compiled.shadow_registers == {a, b}

    def test_config_describe(self):
        text = OptimizationConfig.none().describe()
        assert "lift_guards=off" in text


# --------------------------------------------------------------------------
# the tree rebuild every pass runs on
# --------------------------------------------------------------------------


def _corpus_nodes():
    """One instance of every node class, and both forms of ``if`` (with an
    ``else`` and without): from the kitchen-sink corpus's rules and their
    inlined forms (which bind parameters with ``LetA``)."""
    found = {}
    for builder in CORPUS:
        for rule in builder().all_rules():
            for tree in (rule.action, inline_methods(rule.action)):
                for node in tree.walk():
                    found.setdefault((type(node), getattr(node, "orelse", 0) is None), node)
    assert (IfA, True) in found and (IfA, False) in found
    nodes = list(found.values())
    assert {type(node) for node in nodes} == _node_classes()
    return nodes


class TestRebuild:
    @pytest.mark.parametrize("node", _corpus_nodes(), ids=lambda n: type(n).__name__)
    def test_rebuild_maps_exactly_the_children(self, node):
        """Exactly ``children()`` is mapped, in order.  The copy is a new node
        of the same class that shares every other attribute, with list
        fields staying lists and an absent ``else`` staying ``None``; a node
        without children is its own rebuild."""
        visited = []

        def mark(child):
            visited.append(child)
            return ("mapped", child)

        copy = node.rebuild(mark)
        assert [id(c) for c in visited] == [id(c) for c in node.children()]
        if not visited:
            assert copy is node
            return
        assert copy is not node and type(copy) is type(node)
        assert vars(copy).keys() == vars(node).keys()
        for name, value in vars(node).items():
            if name not in node._child_fields:
                assert vars(copy)[name] is value, name
            elif isinstance(value, list):
                assert vars(copy)[name] == [("mapped", v) for v in value], name
            elif value is None:
                assert vars(copy)[name] is None, name
            else:
                assert vars(copy)[name] == ("mapped", value), name

    @pytest.mark.parametrize("node", _corpus_nodes(), ids=lambda n: type(n).__name__)
    def test_rebuild_keeps_an_unchanged_node(self, node):
        visited = []

        def same(child):
            visited.append(child)
            return child

        assert node.rebuild(same) is node
        assert [id(c) for c in visited] == [id(c) for c in node.children()]

    @pytest.mark.parametrize("node", _corpus_nodes(), ids=lambda n: type(n).__name__)
    def test_every_node_attribute_is_a_child_field(self, node):
        for name, value in vars(node).items():
            values = value if isinstance(value, (list, tuple)) else [value]
            if any(isinstance(v, Node) for v in values):
                assert name in node._child_fields, name


# --------------------------------------------------------------------------
# Section 6.3 differential: compiled rules fire as the raw rules do
# --------------------------------------------------------------------------


class _StrictLets(Evaluator):
    """The evaluator with every ``let`` value evaluated where it is bound:
    the assumption guard lifting makes (``core/guards.py``), which fails a
    rule whose unused binding's guard fails."""

    def eval_expr(self, expr, env, read, hooks=None):
        if isinstance(expr, LetE):
            self.eval_expr(expr.value, env, read, hooks)
        return super().eval_expr(expr, env, read, hooks)

    def exec_action(self, action, env, read, hooks=None):
        if isinstance(action, LetA):
            self.eval_expr(action.value, env, read, hooks)
        return super().exec_action(action, env, read, hooks)


def build_lazy_let():
    """A binding whose guard fails while it is unused, and guarded ``if`` arms.

    ``lazy`` fires (doing nothing) while ``flag`` is false, because the
    binding it skips is non-strict; guard lifting hoists the binding's guard,
    so the compiled rule does not fire there.
    """
    top = Module("top")
    flag = top.add_register("flag", BoolT(), False)
    n = top.add_register("n", UIntT(32), 0)
    x = top.add_register("x", UIntT(32), 0)
    top.add_rule(
        "tick",
        par(n.write(BinOp("+", RegRead(n), Const(1))), flag.write(UnOp("!", RegRead(flag))))
        .when(BinOp("<", RegRead(n), Const(6))),
    )
    top.add_rule(
        "lazy",
        LetA(
            "t",
            WhenE(BinOp("+", RegRead(n), Const(1)), RegRead(flag)),
            IfA(RegRead(flag), x.write(Var("t")), NoAction()),
        ),
    )
    top.add_rule(
        "arms",
        IfA(
            RegRead(flag),
            WhenA(x.write(Const(1)), BinOp("<", RegRead(n), Const(3))),
            WhenA(x.write(Const(2)), BinOp(">", RegRead(n), Const(3))),
        ),
    )
    return Design(top, name="lazy_let")


#: Every combination of the four Section 6.3 switches.
ALL_CONFIGS = [OptimizationConfig(*flags) for flags in itertools.product((False, True), repeat=4)]


def _fire(run):
    try:
        return True, run()
    except GuardFail:
        return False, None


def _fire_compiled(evaluator, compiled, read):
    """The compiled rule's outcome: its lifted guard, then its body."""

    def run():
        if not evaluator.eval_expr(compiled.guard, {}, read, None):
            raise GuardFail("lifted guard")
        return evaluator.exec_action(compiled.body, {}, read, None)

    return _fire(run)


class TestSection63Differential:
    @pytest.mark.parametrize("builder", CORPUS + [build_lazy_let], ids=lambda b: b.__name__)
    def test_compiled_rules_fire_as_the_raw_rules(self, builder):
        """At every state a seeded random-policy run visits, every rule
        compiled under each of the 16 configurations fires exactly when
        the raw rule fires, with equal updates.  The one documented
        exception is the conservative lifting of a ``let``'s guard: there
        the compiled rule behaves as the raw rule with strict lets."""
        design = builder()
        rules = list(design.all_rules())
        registers = design.all_registers()
        evaluator, strict = Evaluator(), _StrictLets()
        sim = Simulator(design, policy="random", seed=5, backend="interp")
        lazy_mismatches = 0
        for _ in range(60):
            read = dict(sim.store).__getitem__
            for rule in rules:
                raw = _fire(lambda: evaluator.exec_action(rule.action, {}, read, None))
                for config in ALL_CONFIGS:
                    compiled = compile_rule(rule, config, registers)
                    outcome = _fire_compiled(evaluator, compiled, read)
                    if outcome != raw:
                        strict_raw = _fire(lambda: strict.exec_action(rule.action, {}, read, None))
                        assert config.lift_guards and raw[0], (rule.full_name, config)
                        assert outcome == strict_raw, (rule.full_name, config)
                        lazy_mismatches += 1
            if sim.step() is None:
                break
        assert (lazy_mismatches > 0) == (builder is build_lazy_let)
