"""One benchmark worker process: set up a workload, optionally measure it.

Started by ``run.py`` with ``REPRO_CACHE_DIR`` pointing at the cache the
set-up should see (empty for a cold set-up, filled for a warm one).  It
prints protocol lines on stdout, each ``@@perfbench `` plus one JSON
object: ``ready`` when the workload is set up (``run.py`` times the
set-up up to that line) and, for ``--role measure``, ``result`` at the
end.  Anything else on stdout is ignored.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import threading
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import reference  # noqa: E402
import workloads as wl  # noqa: E402
from machine import fingerprint  # noqa: E402
from stats import count_degradations  # noqa: E402
from tracing import Tracer  # noqa: E402

PREFIX = "@@perfbench "


def emit(event: str, **payload) -> None:
    sys.stdout.write(PREFIX + json.dumps({"event": event, **payload}) + "\n")
    sys.stdout.flush()


def make(name: str, seed: int, tracer, args):
    if name == "grad_wave2d_large":
        return wl.WaveGradient(seed, tracer)
    if name == "grad_wave2d_sharded":
        return wl.ShardedWaveGradient(seed, tracer)
    if name == "sweep_burgers2d_small":
        return wl.BurgersSweep(seed, tracer)
    if name == "serve_mixed":
        return wl.ServeMixed(seed, tracer, args.cold, args.warm,
                             Path(args.run_dir))
    raise SystemExit(f"unknown workload {name!r}")


class Window:
    """Ops of one timed window: latency, checks, degradations, work.

    Per-op results are kept as floats and counters, never as one
    container per op: retained containers would trigger garbage
    collections inside later ops and show up in their latency.
    """

    def __init__(self, workload, log, tracer) -> None:
        self.workload = workload
        self.log = log
        self.tracer = tracer
        self.ms: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.work = 0
        self._lock = threading.Lock()

    def run_op(self, fn) -> None:
        """Time one op, then check its output outside the timing.

        Safe to call from several client threads at once."""
        with self._lock:
            i = self.attempted
            self.attempted += 1
        seen = len(self.log)
        self.tracer.set_op(i)
        error = None
        t0 = time.perf_counter()
        try:
            out = fn(i)
        except Exception as exc:  # an op that raises is a failed op
            error = f"{type(exc).__name__}: {exc}"
        ms = (time.perf_counter() - t0) * 1e3
        degraded = count_degradations(str(w.message) for w in self.log[seen:])
        work = 0
        ok = False
        if error is None:
            ok = bool(self.workload.check(out)) and not degraded
            measure_work = getattr(self.workload, "work", None)
            work = measure_work(out) if measure_work else self.workload.work_per_op
        with self._lock:
            if error is None:
                self.ms.append(ms)
            elif len(self.errors) < 5:
                self.errors.append(error)
            self.failed += not ok
            self.work += work

    def sequential(self, seconds: float) -> float:
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            self.run_op(self.workload.op)
        return sum(self.ms) / 1e3


def measure_window(workload, seconds, log, tracer):
    win = Window(workload, log, tracer)
    if isinstance(workload, wl.ServeMixed):
        busy = workload.measure(seconds, win.run_op)
    else:
        busy = win.sequential(seconds)
    return win, busy


def die_with_parent() -> None:
    """Ask Linux to kill this process if run.py dies first."""
    try:
        import ctypes
        import signal

        ctypes.CDLL(None).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    except (OSError, AttributeError):
        pass


def main() -> int:
    die_with_parent()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--role", choices=("setup", "measure"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--cold", type=int, default=0)
    ap.add_argument("--warm", type=int, default=0)
    ap.add_argument("--run-dir", default="")
    args = ap.parse_args()

    with warnings.catch_warnings(record=True) as log:
        warnings.simplefilter("always")
        tracer = Tracer(bool(args.trace), proc=f"{args.role}-{os.getpid()}")
        workload = make(args.workload, args.seed, tracer, args)
        with tracer.span("setup"):
            workload.setup()
        setup_warnings = [str(w.message) for w in log]
        emit("ready", spans=tracer.spans,
             degradations=count_degradations(setup_warnings),
             warnings=setup_warnings[:20])
        if args.role == "setup":
            workload.close()
            return 0

        result = {"native_threads": workload.native_threads,
                  "working_set_bytes": workload.working_set,
                  "step_working_set_bytes": workload.step_working_set}
        if args.trace:
            # Half the window untraced, half traced: the difference in
            # op latency is the tracing overhead.
            tracer.enabled = False
            plain, _ = measure_window(workload, args.seconds / 2, log, tracer)
            tracer.enabled = True
            mark = len(tracer.spans)
            win, busy = measure_window(workload, args.seconds / 2, log, tracer)
            window_spans = tracer.spans[mark:]
            p_plain = float(np.median(plain.ms))
            p_traced = float(np.median(win.ms))
            if isinstance(workload, wl.ServeMixed):
                layers = workload.probe(window_spans, p_plain)
            else:
                layers = workload.probe(window_spans)
            layers["trace.overhead_frac"] = (p_traced - p_plain) / p_plain
            borrowed = reference.measure(tracer, workload.reference_groups,
                                         Path(args.run_dir))
            layers.update(borrowed)
            result["reference_metrics"] = sorted(borrowed)
            with tracer.span("roofline.triad"):
                roof = wl.roofline(workload.step_working_set,
                                   workload.native_threads)
            layers["roofline.triad_gbps"] = roof["gbps"]
            layers["runtime.bound.roofline_frac"] = (
                layers["runtime.bound.gbps_computed"] / roof["gbps"])
            result.update(layers=layers, roofline=roof)
            windows = (plain, win)
        else:
            win, busy = measure_window(workload, args.seconds, log, tracer)
            windows = (win,)
        result.update(
            ms=[m for w in windows for m in w.ms],
            attempted=sum(w.attempted for w in windows),
            failed=sum(w.failed for w in windows),
            errors=[e for w in windows for e in w.errors],
            busy_s=busy, work=win.work)
        if isinstance(workload, wl.ServeMixed):
            result["service"] = workload.service_stats()
            result["setup_samples"] = workload.setup_samples
            result["so_built"] = workload.so_built
        result["verify"] = workload.verify()
        workload.close()
        if isinstance(workload, wl.ServeMixed):
            result["daemon_peak_rss_mb"] = workload.peak_daemon_mb
            result["shm_tracked_at_exit"] = workload.shm_tracked
            result["shm_warning"] = workload.shm_warning
            result["daemon_degradations"] = workload.degradations
        all_warnings = [str(w.message) for w in log]
    result.update(
        fingerprint=fingerprint(wl.native_toolchain(), workload.native_threads),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        degradations=count_degradations(all_warnings),
        warnings=all_warnings[:20],
        spans=tracer.spans,
    )
    emit("result", **result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
