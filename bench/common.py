"""Shared pieces of the benchmark: the library path, digests, host speed, statistics.

The benchmark always imports ``riordan`` from ``src/`` of the checkout it
sits in, never from an installed copy, so that it measures the code beside
it and fails when that code is absent.
"""

from __future__ import annotations

import hashlib
import os
import statistics
import sys
import threading
from fractions import Fraction
from pathlib import Path
from time import thread_time

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"
OUT = ROOT / ".bench_out"


class MissingLibrary(RuntimeError):
    """The checkout holds no ``src/riordan`` package."""


def require_library() -> None:
    """Put the checkout's ``src`` first on ``sys.path``, or raise."""
    if not (SRC / "riordan" / "__init__.py").is_file():
        raise MissingLibrary(f"no riordan package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """Environment for a child that must import the checkout's library."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


# -- canonical text and digests -----------------------------------------------

def _series_text(s) -> str:
    return ",".join(str(c) for c in s.coeffs)


def _rows_text(rows) -> str:
    return "\n".join(",".join(str(x) for x in row) for row in rows)


def canonical(obj) -> str:
    """Exact text of a library result: ``str(Fraction)`` per coefficient.

    The text depends only on the mathematical value and its precision, so
    digests of it match byte for byte across commits.
    """
    if isinstance(obj, bool):
        return str(obj)
    if isinstance(obj, tuple):
        return "\x1e".join(canonical(x) for x in obj)
    if isinstance(obj, str):
        return obj
    if hasattr(obj, "coeffs"):
        return _series_text(obj)
    if hasattr(obj, "entries"):  # weighted triangle
        return _rows_text(obj.entries.rows)
    if hasattr(obj, "rows"):
        return _rows_text(obj.rows)
    if hasattr(obj, "g") and hasattr(obj, "f"):
        return f"g:{_series_text(obj.g)};f:{_series_text(obj.f)}"
    if hasattr(obj, "a") and hasattr(obj, "z"):
        return f"A:{_series_text(obj.a)};Z:{_series_text(obj.z)}"
    raise TypeError(f"no canonical text for {type(obj).__name__}")


def digest(obj) -> str:
    return hashlib.sha256(canonical(obj).encode()).hexdigest()


# -- host speed -------------------------------------------------------------------

# The calibration time that defines the reference speed, in seconds.
CAL_REF_S = 0.002


def calibrate() -> float:
    """CPU seconds taken by a fixed exact-rational loop sharing no library code.

    The benchmark runs on shared virtual machines.  Time the hypervisor
    gives to other guests (steal) inflates wall time but not CPU time, so
    ops are timed in CPU time.  What remains is the processor's own speed,
    which swings by half or more for seconds at a time as neighbours load
    the shared core, and the library's exact arithmetic slows in step with
    this loop.  Reported times are therefore scaled by ``CAL_REF_S`` over
    the calibration measured next to them, so they read as CPU times at one
    fixed reference speed; raw wall times are printed beside them.
    """
    start = thread_time()
    acc = Fraction(0)
    for i in range(1, 400):
        acc += Fraction(i, i + 7) * Fraction(3 * i + 1, 2 * i + 5)
    return thread_time() - start


class SpeedSampler:
    """Calibrations taken every ``every`` seconds while a child process runs.

    The runner and its children share one CPU, so each calibration pauses
    the child for a moment and reads the processor's speed during the
    child's run rather than only around it.  Calibrations count their own
    thread's CPU time, which time-sharing with the child does not inflate,
    and the child's CPU time does not include them.
    """

    def __init__(self, every: float):
        self.every = every
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self.every):
            self.samples.append(calibrate())

    def __enter__(self) -> "SpeedSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def calibration(self, *around: float) -> float:
        """The calibration at the mean speed over the samples and ``around``.

        Samples are evenly spaced in time, so the mean of the speeds they
        read (a harmonic mean of their times) follows the child's whole run.
        """
        return statistics.harmonic_mean(self.samples + list(around))


# -- statistics -----------------------------------------------------------------

def median(values: list[float]) -> float:
    return statistics.median(values)


def p90(values: list[float]) -> float:
    """The 90th percentile, interpolated between order statistics."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]

