"""Shared definitions: paths, seeded inputs, design specs, run conditions.

Imported both by the benchmark entry point (``run.py``) and by the
fresh-interpreter helper (``cold.py``), so a design spec means the same
thing in either process.  A *design spec* is plain JSON-able data::

    {"name": "vorbis_C", "app": "vorbis", "kind": "partition",
     "letter": "C", "params": {...}}
"""

from __future__ import annotations

import hashlib
import os
import platform
import random
import resource
import sys
import time
from bisect import bisect_left
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

#: Every simulation in the benchmark runs on the source-lowered tier.
BACKEND = "source"
MAX_CYCLES = 500_000_000.0


#: Seconds of :func:`calibrate` on the reference host -- a shared 2-CPU
#: Xeon VM at 2.1 GHz running Python 3.11, in its uncontended mode.
REFERENCE_CALIBRATION_S = 1.25e-3
#: Least seconds between two calibration samples.
CALIBRATION_INTERVAL_S = 0.02


def calibrate() -> float:
    """Seconds one fixed pure-Python loop takes now: the host's speed.

    Shared hosts alternate between a fast mode and one 1.6-1.8x slower for
    seconds at a time (measured on the reference host), which moves every
    host time of a run together.  The loop uses the operations the
    simulator spends its time on -- dict stores, tuple building, integer
    arithmetic, calls -- so its time tracks the mode.
    """
    start = time.perf_counter()
    table = {}
    acc = 0
    for i in range(3000):
        table[i & 255] = (i, acc)
        acc = (acc * 31 + i) & 0xFFFFFFFF
        acc ^= len(tuple(range(i & 7)))
    return time.perf_counter() - start


class HostSpeed:
    """Calibration samples over a run; turns host seconds into reference seconds.

    ``scale(t)`` is ``REFERENCE_CALIBRATION_S`` over the mean of the
    samples just before and just after time ``t``: multiplying a time
    measured around ``t`` by it gives the time the reference host would
    have taken in its uncontended mode.
    """

    def __init__(self) -> None:
        self.times: List[float] = []
        self.values: List[float] = []
        #: Seconds spent sampling, for callers to leave out of their timings.
        self.spent = 0.0
        calibrate()  # let the interpreter specialise the loop first
        calibrate()

    def sample(self, force: bool = False) -> None:
        """Take a calibration sample unless one was taken very recently."""
        now = time.perf_counter()
        if force or not self.times or now - self.times[-1] >= CALIBRATION_INTERVAL_S:
            value = calibrate()
            self.times.append(now)
            self.values.append(value)
            self.spent += time.perf_counter() - now

    def scale(self, t: float) -> float:
        if not self.values:
            return 1.0
        i = bisect_left(self.times, t)
        before = self.values[max(i - 1, 0)]
        after = self.values[min(i, len(self.values) - 1)]
        return REFERENCE_CALIBRATION_S / ((before + after) / 2)


def require_source_tree() -> None:
    """Exit with code 2 unless the program's source tree is present."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program source at {SRC / 'repro'}\n")
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def derive_seeds(seed: int) -> Dict[str, int]:
    """Input seeds derived from the workload seed (the program sees only these)."""
    rng = random.Random(seed)
    return {
        "vorbis": rng.randrange(1, 1 << 30),
        "raytracer": rng.randrange(1, 1 << 30),
        "mix": rng.randrange(1, 1 << 30),
    }


def spec(app: str, kind: str, letter: str, params: Dict[str, Any]) -> Dict[str, Any]:
    prefix = "vorbis" if app == "vorbis" else "raytracer"
    return {
        "name": f"{prefix}_{letter}",
        "app": app,
        "kind": kind,
        "letter": letter,
        "params": dict(params),
    }


def builder_of(design: Dict[str, Any]) -> Tuple[Callable[..., Any], Tuple[Any, ...]]:
    """The module-level builder and its picklable arguments for a spec."""
    if design["app"] == "vorbis":
        from repro.apps.vorbis import partitions
        from repro.apps.vorbis.params import VorbisParams

        builder = (
            partitions.build_multi_partition
            if design["kind"] == "multi"
            else partitions.build_partition
        )
        return builder, (design["letter"], VorbisParams(**design["params"]))
    from repro.apps.raytracer import partitions
    from repro.apps.raytracer.params import RayTracerParams

    return partitions.build_partition, (design["letter"], RayTracerParams(**design["params"]))


def expected_checksum(design: Dict[str, Any]) -> int:
    """The reference model's checksum for a spec's inputs."""
    _, (_, params) = builder_of(design)
    if design["app"] == "vorbis":
        from repro.apps.vorbis import reference
    else:
        from repro.apps.raytracer import reference
    return reference.expected_checksum(params)


def stall_count(result) -> int:
    """Credit stalls summed over a ``CosimResult``'s virtual channels."""
    return sum(stats["credit_stalls"] for stats in result.vc_stats.values())


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _child_pids() -> List[int]:
    """Live child processes of this process (Linux ``/proc``; else none)."""
    me = os.getpid()
    pids = []
    for entry in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = entry.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == me:
            pids.append(int(entry.parent.name))
    return pids


def stop_children() -> None:
    """Stop every process this run started and wait until each has ended.

    The distributed leg's ``shm`` carrier uses ``multiprocessing.shared_memory``,
    which starts a resource-tracker process that would otherwise outlive the
    run until it noticed its parent was gone.  Its members and the cold
    sweep's interpreters are joined where they start; anything still left
    (after an exception, say) is terminated and reaped here.
    """
    import multiprocessing
    import signal
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    resource_tracker._resource_tracker._stop()
    for pid in _child_pids():
        try:
            os.kill(pid, signal.SIGTERM)
            os.waitpid(pid, 0)
        except (ChildProcessError, ProcessLookupError):
            pass


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _source_digest() -> str:
    """SHA-1 over the program's Python sources (identifies a non-git checkout)."""
    digest = hashlib.sha1()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def conditions(memo: bool, regime: str) -> Dict[str, Any]:
    """The conditions every result file records."""
    from repro.core import kernelcompile

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {
        "cpus": os.cpu_count() or 1,
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "numpy": numpy_version,
        "kernel_backend": kernelcompile.kernel_backend(),
        "rule_backend": BACKEND,
        "kernel_memo": "on" if memo else "off",
        "regime": regime,
        "git_commit": _git_commit(),
        "source_digest": _source_digest(),
        "fpga_cycles_note": (
            "fpga_cycles is simulated time from the repository's cost model; "
            "the model is unvalidated against real hardware, so no error figure is given"
        ),
    }
