"""Partition extraction (Section 4.3, Figure 6).

After type checking and domain inference, the code for a particular domain
``D`` is obtained by keeping only the rules annotated with ``D``.  Each
partition is then a complete BCL program of its own that communicates with
the other partitions exclusively through the synchronizer endpoints that
landed on the cut.  The compiler's third output -- the interface -- is
derived from that cut set by :mod:`repro.codegen.interface`.

The partitioner also performs the safety check that makes the whole scheme
trustworthy: every non-synchronizer state element must be touched only by
rules of its own domain (otherwise the program needed a synchronizer and the
domain type check should have failed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Union

from repro.core.analysis import modules_touched, rule_read_set, rule_write_set
from repro.core.domains import (
    Domain,
    effective_module_domain,
    infer_design_domains,
    unresolved_domain_variables,
)
from repro.core.errors import PartitionError
from repro.core.module import Design, Module, Register, Rule
from repro.core.synchronizers import SyncFifo, cross_domain_synchronizers


@dataclass
class PartitionedProgram:
    """One domain's slice of the design: its rules, state and synchronizer endpoints."""

    domain: Domain
    rules: List[Rule] = field(default_factory=list)
    modules: List[Module] = field(default_factory=list)
    registers: List[Register] = field(default_factory=list)
    #: Synchronizers whose *producer* (enq) side lives in this domain.
    produces_to: List[SyncFifo] = field(default_factory=list)
    #: Synchronizers whose *consumer* (deq/first) side lives in this domain.
    consumes_from: List[SyncFifo] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.domain.name

    def __repr__(self) -> str:
        return (
            f"PartitionedProgram({self.domain.name}, rules={len(self.rules)}, "
            f"registers={len(self.registers)}, "
            f"out_syncs={len(self.produces_to)}, in_syncs={len(self.consumes_from)})"
        )


def default_engine_kind(domain: Union[Domain, str]) -> str:
    """The default engine kind (``"hw"``/``"sw"``) a domain simulates on.

    Domains whose name starts with ``HW`` -- case-insensitively, so
    ``hw_accel`` behaves like ``HW_ACCEL`` -- run on the cycle-level hardware
    engine; everything else runs on the cost-modelled software engine.  This
    is the *single* source of that convention: the co-simulation fabric, the
    sweep examples and the interface generator must all consult it (or an
    explicit ``engine_kinds`` override) so a domain never simulates as
    hardware in one layer and generates software transactors in another.
    """
    name = domain.name if isinstance(domain, Domain) else domain
    return "hw" if name.upper().startswith("HW") else "sw"


@dataclass
class Partitioning:
    """The result of partitioning a design: per-domain programs plus the cut."""

    design: Design
    programs: Dict[Domain, PartitionedProgram]
    cut: List[SyncFifo]

    def program(self, domain: Domain) -> PartitionedProgram:
        if domain not in self.programs:
            raise PartitionError(f"design has no partition for domain {domain.name}")
        return self.programs[domain]

    @property
    def domains(self) -> List[Domain]:
        return sorted(self.programs.keys(), key=lambda d: d.name)

    def route_pairs(self) -> List[tuple]:
        """The (producer, consumer) domain-name pairs the cut actually uses.

        This is the link set a :class:`~repro.platform.channel.Topology`
        must provide: one serialised point-to-point link per pair, in cut
        order (deduplicated).  A two-domain design yields the classic
        ``[(SW, HW), (HW, SW)]`` duplex pair (or a subset when traffic is
        one-directional).
        """
        pairs: List[tuple] = []
        seen: Set[tuple] = set()
        for sync in self.cut:
            pair = (sync.domain_enq.name, sync.domain_deq.name)
            if pair not in seen:
                seen.add(pair)
                pairs.append(pair)
        return pairs

    def engine_kinds(
        self, overrides: Optional[Dict[Union[Domain, str], str]] = None
    ) -> Dict[str, str]:
        """Domain-name -> engine-kind (``"hw"``/``"sw"``) mapping for this design.

        Starts from :func:`default_engine_kind` for every partitioned domain
        and applies ``overrides`` (keyed by :class:`Domain` or name) on top.
        An override naming a domain the design does not partition into is an
        error -- it would silently configure nothing.
        """
        kinds = {d.name: default_engine_kind(d) for d in self.programs}
        for key, kind in (overrides or {}).items():
            if kind not in ("hw", "sw"):
                raise PartitionError(f"unknown engine kind {kind!r} (expected 'hw'/'sw')")
            name = key.name if isinstance(key, Domain) else key
            if name not in kinds:
                raise PartitionError(
                    f"engine_kinds names domain {name!r} but the design partitions "
                    f"into {sorted(kinds)}"
                )
            kinds[name] = kind
        return kinds

    def engine_kind(
        self,
        domain: Union[Domain, str],
        overrides: Optional[Dict[Union[Domain, str], str]] = None,
    ) -> str:
        """The engine kind one domain simulates on (overrides, else the default).

        Same validation as :meth:`engine_kinds` (it is a lookup into it), so
        a typo'd domain or an invalid override kind raises instead of
        silently falling back to a default.
        """
        name = domain.name if isinstance(domain, Domain) else domain
        kinds = self.engine_kinds(overrides)
        if name not in kinds:
            raise PartitionError(
                f"design has no partition for domain {name!r}; partitions: {sorted(kinds)}"
            )
        return kinds[name]

    def independent_groups(self) -> List[List[Domain]]:
        """Connected components of the domain graph induced by the cut.

        Domains joined (transitively) by a synchronizer must co-simulate in
        one fabric; domains in different components never exchange a message
        and may run in separate processes (:func:`repro.sim.pool.run_grouped`)
        or under independent clocks inside one fabric
        (:class:`~repro.sim.cosim.CosimFabric`).  Returned sorted by each
        group's first domain name for determinism.  The result is memoised
        (elaborated designs are immutable after construction).
        """
        cached = getattr(self, "_groups_cache", None)
        if cached is not None:
            return cached
        parent: Dict[Domain, Domain] = {d: d for d in self.programs}

        def find(d: Domain) -> Domain:
            while parent[d] is not d:
                parent[d] = parent[parent[d]]
                d = parent[d]
            return d

        for sync in self.cut:
            a, b = sync.domain_enq, sync.domain_deq
            if a in parent and b in parent:
                ra, rb = find(a), find(b)
                if ra is not rb:
                    parent[rb] = ra
        groups: Dict[Domain, List[Domain]] = {}
        for d in self.programs:
            groups.setdefault(find(d), []).append(d)
        ordered = [sorted(g, key=lambda d: d.name) for g in groups.values()]
        ordered = sorted(ordered, key=lambda g: g[0].name)
        self._groups_cache = ordered
        return ordered

    def _group_index(self) -> Dict[str, int]:
        """Domain name -> its index into :meth:`independent_groups`."""
        cached = getattr(self, "_group_index_cache", None)
        if cached is None:
            cached = {
                d.name: i
                for i, group in enumerate(self.independent_groups())
                for d in group
            }
            self._group_index_cache = cached
        return cached

    def summary(self) -> str:
        """Human-readable description used by examples, the lint CLI and
        EXPERIMENTS.md: per-domain rule rosters, the cut with per-channel
        credit windows (the FIFO depth is the credit window unless the link
        overrides it), and route/group totals."""
        lines = [f"Partitioning of design {self.design.name!r}:"]
        for domain in self.domains:
            prog = self.programs[domain]
            rule_names = ", ".join(r.name for r in prog.rules) or "(none)"
            lines.append(f"  [{domain.name}] rules: {rule_names}")
        if self.cut:
            for sync in self.cut:
                lines.append(
                    f"  [cut] {sync.name}: {sync.domain_enq.name} -> {sync.domain_deq.name}"
                    f" ({sync.ty!r}, credit window {sync.depth})"
                )
        else:
            lines.append("  [cut] empty (single-domain design)")
        groups = self.independent_groups()
        lines.append(
            f"  [totals] {len(self.domains)} domain(s), {len(self.route_pairs())} "
            f"route(s), {len(self.cut)} cut channel(s), {len(groups)} independent "
            f"group(s)"
        )
        return "\n".join(lines)


def partition_design(design: Design, default_domain: Optional[Domain] = None) -> Partitioning:
    """Split ``design`` into per-domain programs connected by synchronizers.

    ``default_domain`` is assigned to rules that touch no domain-annotated
    state (typically pure bookkeeping rules); passing ``None`` makes such
    rules an error, which is the strict reading of the paper's type system.

    The result is memoised on the design per default domain: elaborated
    designs are immutable, so the interface generator and the fabric of
    one design share one :class:`Partitioning` (and its memoised groups).
    """
    memo = design.__dict__.setdefault("_partitionings", {})
    partitioning = memo.get(default_domain)
    if partitioning is None:
        partitioning = memo[default_domain] = _partition(design, default_domain)
    return partitioning


def _partition(design: Design, default_domain: Optional[Domain]) -> Partitioning:
    unresolved = unresolved_domain_variables(design)
    if unresolved:
        raise PartitionError(
            f"design {design.name} still has unresolved domain variables {unresolved}; "
            "call substitute_domains()/specialize_synchronizers() first"
        )

    rule_domains = infer_design_domains(design, default_domain)
    cut = cross_domain_synchronizers(design)
    cut_set: Set[Module] = set(cut)

    domains = sorted({d for d in rule_domains.values()}, key=lambda d: d.name)
    programs: Dict[Domain, PartitionedProgram] = {
        d: PartitionedProgram(domain=d) for d in domains
    }

    # Rules.
    for rule, domain in rule_domains.items():
        programs[domain].rules.append(rule)

    # State ownership and the safety check.
    _assign_state(design, programs, cut_set, default_domain)

    # Synchronizer endpoints.
    for sync in cut:
        if sync.domain_enq in programs:
            programs[sync.domain_enq].produces_to.append(sync)
        if sync.domain_deq in programs:
            programs[sync.domain_deq].consumes_from.append(sync)

    _check_isolation(rule_domains, cut_set)

    return Partitioning(design=design, programs=programs, cut=cut)


def _assign_state(
    design: Design,
    programs: Dict[Domain, PartitionedProgram],
    cut_set: Set[Module],
    default_domain: Optional[Domain],
) -> None:
    """Assign every module (and its registers) to the partition that owns it."""
    for module in design.all_modules():
        if module in cut_set:
            continue  # split between both sides; handled by the interface generator
        if isinstance(module, SyncFifo) and not module.is_cross_domain:
            # A specialised (same-domain) synchronizer is a plain FIFO whose
            # owner is its endpoint domain -- which lives on its *methods*,
            # not on the module, so the generic lookup below would misfile
            # it under the default domain.
            domain = module.domain_enq
        else:
            domain = effective_module_domain(module)
        if domain is None:
            domain = default_domain
        if domain is None or domain not in programs:
            # A module with no rules and no domain (e.g. a structural wrapper)
            # does not need to be placed unless it owns registers.
            if module.registers and domain is None:
                if default_domain is None:
                    raise PartitionError(
                        f"module {module.full_name} owns state but has no domain and no "
                        "default domain was provided"
                    )
            if domain is None or domain not in programs:
                continue
        prog = programs[domain]
        prog.modules.append(module)
        prog.registers.extend(module.registers)


def _check_isolation(rule_domains: Dict[Rule, Domain], cut_set: Set[Module]) -> None:
    """Every non-synchronizer state element is touched by one domain only."""
    touchers: Dict[Register, Set[Domain]] = {}
    for rule, domain in rule_domains.items():
        for reg in rule_read_set(rule) | rule_write_set(rule):
            if reg.parent in cut_set:
                continue
            touchers.setdefault(reg, set()).add(domain)
    violations = {
        reg.full_name: sorted(d.name for d in doms)
        for reg, doms in touchers.items()
        if len(doms) > 1
    }
    if violations:
        raise PartitionError(
            "state elements are shared across domains without a synchronizer: "
            f"{violations}"
        )
