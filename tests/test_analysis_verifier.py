"""Tests for the static design verifier (``repro.analysis``).

Three layers: the positive control (every shipped workload lints clean --
the CI ``lint-designs`` gate in test form), the negative controls (each
diagnostic code fires on exactly its seeded-defect fixture from
``tests/analysis_fixtures.py``), and the plumbing (determinism,
suppression, strict ``verify=True`` mode, the CLI entry point).
"""

import pytest

from analysis_fixtures import (
    DESIGN_FIXTURES,
    build_credit_cycle,
    build_snapshot_arity_drift_fabric,
    build_snapshot_gap_fabric,
)
from repro.analysis import (
    CODES,
    Diagnostic,
    VerificationError,
    audit_fabric,
    filter_suppressed,
    require_clean,
    shipped_workloads,
    verify_design,
    verify_partitioning,
    workload_by_name,
)
from repro.analysis.__main__ import main as lint_main
from repro.codegen.interface import build_interface_spec
from repro.core.partition import partition_design
from repro.sim.cosim import CosimFabric

WORKLOAD_NAMES = [spec.name for spec in shipped_workloads()]


class TestCleanPass:
    """The shipped workloads are the verifier's zero-false-positive bar."""

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_shipped_workload_lints_clean(self, name):
        workload = workload_by_name(name).build()
        assert verify_design(workload.design) == []

    @pytest.mark.parametrize("name", ["vorbis_B", "vorbis_G", "raytracer_C"])
    def test_shipped_fabric_audits_clean(self, name):
        workload = workload_by_name(name).build()
        for backend in ("interp", "source"):
            fabric = CosimFabric(workload.design, backend=backend)
            assert audit_fabric(fabric) == [], backend

    def test_summary_reports_totals(self):
        workload = workload_by_name("vorbis_G").build()
        text = partition_design(workload.design).summary()
        assert "[totals]" in text
        assert "credit window" in text


class TestSeededDefects:
    """Each code must fire on its fixture -- and fire alone."""

    @pytest.mark.parametrize("code", sorted(DESIGN_FIXTURES))
    def test_fixture_fires_exactly_its_code(self, code):
        diags = verify_design(DESIGN_FIXTURES[code]())
        assert {d.code for d in diags} == {code}

    def test_snapshot_gap_detected(self):
        diags = audit_fabric(build_snapshot_gap_fabric())
        assert {d.code for d in diags} == {"REPRO-E008"}
        assert any("_forgotten_counter" in d.location for d in diags)

    def test_snapshot_arity_drift_detected(self):
        diags = audit_fabric(build_snapshot_arity_drift_fabric())
        assert "REPRO-E009" in {d.code for d in diags}

    def test_diagnostics_are_deterministic(self):
        for code, builder in sorted(DESIGN_FIXTURES.items()):
            first = verify_design(builder())
            second = verify_design(builder())
            assert first == second
            assert [d.render() for d in first] == [d.render() for d in second]


class TestPlumbing:
    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError):
            Diagnostic(code="REPRO-X999", location="nowhere", message="bogus")

    def test_severity_derived_from_code(self):
        assert all(code[6] in ("E", "W") for code in CODES)
        diags = verify_design(DESIGN_FIXTURES["REPRO-W004"]())
        assert all(d.severity == "warning" for d in diags)
        diags = verify_design(DESIGN_FIXTURES["REPRO-E002"]())
        assert all(d.severity == "error" for d in diags)

    def test_suppression_by_code_and_check(self):
        diags = verify_design(DESIGN_FIXTURES["REPRO-W005"]())
        assert diags
        assert filter_suppressed(diags, ["REPRO-W005"]) == []
        assert filter_suppressed(diags, [diags[0].check]) == []

    def test_require_clean_errors_only(self):
        warnings = verify_design(DESIGN_FIXTURES["REPRO-W004"]())
        require_clean(warnings)  # warnings pass strict mode
        errors = verify_design(DESIGN_FIXTURES["REPRO-E003"]())
        with pytest.raises(VerificationError) as err:
            require_clean(errors, context="strictness")
        assert "REPRO-E003" in str(err.value)
        assert err.value.diagnostics == errors


class TestStrictMode:
    def test_fabric_verify_rejects_credit_cycle(self):
        design = build_credit_cycle()
        CosimFabric(design)  # permissive default still elaborates
        with pytest.raises(VerificationError):
            CosimFabric(design, verify=True)

    def test_interface_spec_verify_rejects_credit_cycle(self):
        partitioning = partition_design(build_credit_cycle())
        build_interface_spec(partitioning)  # permissive default still builds
        with pytest.raises(VerificationError):
            build_interface_spec(partitioning, verify=True)

    def test_fabric_verify_accepts_clean_design(self):
        workload = workload_by_name("vorbis_B").build()
        fabric = CosimFabric(workload.design, backend="source", verify=True)
        assert fabric.partitioning.cut


class TestCli:
    def test_list(self, capsys):
        assert lint_main(["--list"]) == 0
        out = capsys.readouterr().out.split()
        assert out == WORKLOAD_NAMES

    def test_clean_workload_exits_zero(self, capsys):
        assert lint_main(["vorbis_A", "-q"]) == 0
        assert "lint clean" in capsys.readouterr().out

    def test_unknown_workload_rejected(self):
        with pytest.raises(KeyError):
            lint_main(["no_such_workload"])
