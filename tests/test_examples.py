"""The checking examples fail loudly: a checksum or total that disagrees
with the reference ends the run with a non-zero exit naming what differs."""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"example_{name}", EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_raytracer_sweep_exits_nonzero_on_mismatch(monkeypatch, capsys):
    example = _load("raytracer_partitions")
    render = example.render

    def wrong_render(params):
        result = render(params)
        return dataclasses.replace(result, checksum=(result.checksum + 1) & 0xFFFFFFFF)

    monkeypatch.setattr(example, "render", wrong_render)
    monkeypatch.setattr(sys, "argv", ["raytracer_partitions.py", "16", "2"])
    with pytest.raises(SystemExit) as exit_info:
        example.main()
    assert exit_info.value.code not in (None, 0)
    assert "partition A" in str(exit_info.value.code)
    assert "MISMATCH" in capsys.readouterr().out


def test_vorbis_sweep_exits_nonzero_on_mismatch(monkeypatch, capsys):
    example = _load("vorbis_partition_sweep")
    expected = example.expected_checksum
    monkeypatch.setattr(example, "expected_checksum", lambda params: expected(params) ^ 1)
    monkeypatch.setattr(sys, "argv", ["vorbis_partition_sweep.py", "2"])
    with pytest.raises(SystemExit) as exit_info:
        example.main()
    assert exit_info.value.code not in (None, 0)
    assert "partition A" in str(exit_info.value.code)
    assert "MISMATCH" in capsys.readouterr().out


def test_quickstart_exits_nonzero_on_mismatch(monkeypatch):
    example = _load("quickstart")
    example.main()  # the real totals pass
    monkeypatch.setattr(example, "EXPECTED_TOTAL", example.EXPECTED_TOTAL + 1)
    with pytest.raises(SystemExit) as exit_info:
        example.main()
    assert exit_info.value.code not in (None, 0)
    message = str(exit_info.value.code)
    assert "reference simulator total is 1240" in message
    assert "co-simulation total is 1240" in message
