"""The repository benchmark: four workloads, end-to-end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload grad_wave2d_large --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the same
workload with spans recorded around each call into the program and
prints the per-layer metrics.  The last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it are a readable table.  Every run also writes its full record
(fingerprint, samples, spans) under ``.bench_build/perfbench/raw`` for
``report.py``.

This process only orchestrates: each set-up runs in a fresh worker
process (``worker.py``) against an empty native cache (cold, ``setup_s``)
or the cache a cold set-up filled (warm, ``restart_s``); the last warm
worker also runs the timed window.  See ``README.md`` for the
workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from stats import count_failures, median, tail  # noqa: E402
from tracing import self_times  # noqa: E402

BUILD = ROOT / ".bench_build" / "perfbench"
RAW = BUILD / "raw"
PREFIX = "@@perfbench "
DEADLINE_S = 170.0

WORKLOADS = (
    "grad_wave2d_large",
    "sweep_burgers2d_small",
    "grad_wave2d_sharded",
    "serve_mixed",
)


def setups(workload: str, trace: int) -> tuple[int, int]:
    """Set-ups per run, (cold, warm); the last warm set-up also measures.

    A daemon set-up costs about a second and a half, a gradient's five,
    so serving takes one more of each for a steadier median.
    """
    cold, warm = (1, 1) if trace else (2, 2)
    if workload == "serve_mixed":
        return cold + 1, warm + 1
    return cold, warm

END_TO_END_UNITS = {
    "setup_s": "s",
    "restart_s": "s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "throughput": "Gpt-steps/s",
    "peak_rss_mb": "MiB",
    "fail_frac": "ratio",
}
# Printed and recorded, but not in the JSON line BENCHMARK.json bounds:
# fail_frac reads 0 when nothing fails (it is carried by "attempted" and
# "failed"), and restart_s, a second of pure-Python set-up, moved by up
# to 31% (IQR over median, ten runs) with the shared machine's speed,
# more than any bound can absorb, so a gate on it would only gate noise.
UNBOUNDED_END_TO_END = ("restart_s", "fail_frac")
REPORTED_END_TO_END = tuple(
    k for k in END_TO_END_UNITS if k not in UNBOUNDED_END_TO_END)

PER_LAYER_UNITS = {
    "frontend.parse_ms": "ms",
    "core.derive_ms": "ms",
    "runtime.compiler.compile_ms": "ms",
    "runtime.cache.hits": "count",
    "runtime.cache.misses": "count",
    "runtime.plan.plan_ms": "ms",
    "runtime.native.bind_cold_s": "s",
    "runtime.native.bind_warm_ms": "ms",
    "runtime.native.so_built": "count",
    "runtime.bound.fwd_step_ms": "ms",
    "runtime.bound.rev_step_ms": "ms",
    "runtime.bound.ns_per_pt": "ns/pt",
    "runtime.bound.gbps_computed": "GB/s",
    "runtime.bound.roofline_frac": "ratio",
    "runtime.bound.sweeps_per_step": "count",
    "runtime.bound.fused_groups": "count",
    "runtime.bound.native_statements": "count",
    "roofline.triad_gbps": "GB/s",
    "runtime.checkpoint.forward_s": "s",
    "runtime.checkpoint.adjoint_s": "s",
    "runtime.checkpoint.recompute_ratio": "ratio",
    "runtime.checkpoint.overhead_s": "s",
    "runtime.checkpoint.snapshot_mb": "MiB",
    "runtime.ensemble.run_us": "us",
    "runtime.ensemble.loop_us": "us",
    "runtime.ensemble.batched_over_loop": "ratio",
    "runtime.ensemble.native_statements": "count",
    "runtime.ensemble.batched_statements": "count",
    "runtime.ensemble.member_statements": "count",
    "runtime.distributed.step_ms": "ms",
    "runtime.distributed.exchange_ms": "ms",
    "runtime.distributed.accumulate_ms": "ms",
    "runtime.distributed.degraded": "count",
    "runtime.client.compile_ms": "ms",
    "runtime.client.request_spec_ms": "ms",
    "runtime.client.request_id_ms": "ms",
    "runtime.server.direct_ms": "ms",
    "runtime.server.served_over_direct": "ratio",
    "runtime.server.batch_share": "ratio",
    "runtime.server.mean_batch": "count",
    "runtime.server.errors": "count",
    "runtime.server.accept_drops": "count",
    "runtime.server.batch_fallbacks": "count",
    "runtime.server.shm_tracked_at_exit": "count",
    "trace.overhead_frac": "ratio",
}


class WorkerError(RuntimeError):
    pass


def spawn(args, role: str, cache: Path, run_dir: Path, deadline: float,
          log_path: Path) -> dict:
    """Run one worker; returns its ``ready`` and ``result`` payloads and
    the seconds from process start to ``ready``."""
    # TMPDIR keeps the compiler's and Python's temporary files inside
    # the run directory.
    tmp = run_dir / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, REPRO_CACHE_DIR=str(cache), TMPDIR=str(tmp),
               PYTHONPATH=str(ROOT / "src"))
    env.pop("REPRO_NATIVE_THREADS", None)
    cold, warm = setups(args.workload, args.trace)
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--role", role, "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--cold", str(cold),
           "--warm", str(warm), "--run-dir", str(run_dir)]
    out: dict = {}
    with open(log_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env,
                                stdout=subprocess.PIPE, stderr=err, text=True)
        # A worker that stops talking is killed at the run's deadline.
        watchdog = threading.Timer(max(0.0, deadline - t0), proc.kill)
        watchdog.start()
        try:
            for line in proc.stdout:
                if not line.startswith(PREFIX):
                    continue
                msg = json.loads(line[len(PREFIX):])
                if msg["event"] == "ready":
                    out["setup_s"] = time.perf_counter() - t0
                out[msg.pop("event")] = msg
            proc.wait()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
            proc.stdout.close()
    if time.perf_counter() >= deadline:
        raise WorkerError(f"{role} worker ran past the run's deadline")
    if proc.returncode != 0 or "ready" not in out:
        tail_lines = log_path.read_text().splitlines()[-15:]
        raise WorkerError(
            f"{role} worker exited with {proc.returncode}:\n"
            + "\n".join(tail_lines))
    return out


def per_setup(spans, name: str) -> float:
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name)


def setup_layers(cold_runs, warm_runs, cold_dirs) -> dict:
    """Per-layer set-up figures from the set-up workers' spans: totals per
    set-up, median over set-ups."""
    runs = cold_runs + warm_runs
    med = lambda vals: median(vals) if vals else 0.0  # noqa: E731
    return {
        "frontend.parse_ms": 0.0,
        "core.derive_ms": 1e3 * med([per_setup(r, "core.derive") for r in runs]),
        "runtime.compiler.compile_ms": 1e3 * med(
            [per_setup(r, "runtime.compiler.compile") for r in runs]),
        "runtime.plan.plan_ms": 1e3 * med(
            [per_setup(r, "runtime.plan.plan") for r in runs]),
        "runtime.native.bind_cold_s": med(
            [per_setup(r, "runtime.native.bind") for r in cold_runs]),
        "runtime.native.so_built": med(
            [len(list((d / "native").glob("*.so"))) for d in cold_dirs]),
    }


def serve_setup_layers(spans, so_built) -> dict:
    def p50(name):
        d = [s["end"] - s["start"] for s in spans if s["name"] == name]
        return median(d) if d else 0.0
    return {
        "core.derive_ms": 0.0,
        "runtime.compiler.compile_ms": 1e3 * per_setup(spans, "runtime.compiler.compile"),
        "runtime.plan.plan_ms": 1e3 * per_setup(spans, "runtime.plan.plan"),
        "runtime.native.bind_cold_s": per_setup(spans, "runtime.native.bind"),
        "runtime.native.so_built": median(so_built),
        "runtime.client.compile_ms": 1e3 * p50("runtime.client.compile"),
    }


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs: how much of the run the
    hypervisor gave to other guests, a cause of run-to-run spread."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def run(args) -> dict:
    deadline = time.perf_counter() + DEADLINE_S
    run_dir = BUILD / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    cold, warm = setups(args.workload, args.trace)
    try:
        setup_spans: list[list] = []
        samples = {"cold": [], "warm": []}
        cold_dirs = []
        setup_degradations = 0
        if args.workload == "serve_mixed":
            m = spawn(args, "measure", run_dir / "inproc", run_dir, deadline,
                      run_dir / "worker.log")
            res = m["result"]
            samples = res["setup_samples"]
            layers = serve_setup_layers(m["ready"]["spans"], res["so_built"])
        else:
            for k in range(cold):
                d = run_dir / f"cold{k}"
                s = spawn(args, "setup", d, run_dir, deadline,
                          run_dir / f"cold{k}.log")
                samples["cold"].append(s["setup_s"])
                setup_spans.append(s["ready"]["spans"])
                setup_degradations += s["ready"]["degradations"]
                cold_dirs.append(d)
            for k in range(warm - 1):
                s = spawn(args, "setup", cold_dirs[0], run_dir, deadline,
                          run_dir / f"warm{k}.log")
                samples["warm"].append(s["setup_s"])
                setup_spans.append(s["ready"]["spans"])
                setup_degradations += s["ready"]["degradations"]
            m = spawn(args, "measure", cold_dirs[0], run_dir, deadline,
                      run_dir / "measure.log")
            samples["warm"].append(m["setup_s"])
            setup_spans.append(m["ready"]["spans"])
            res = m["result"]
            layers = setup_layers(setup_spans[:cold], setup_spans[cold:],
                                  cold_dirs)
        setup_degradations += m["ready"]["degradations"]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return summarise(args, res, samples, layers, setup_degradations,
                     setup_spans)


def residency(res) -> dict:
    """Working sets beside the cache sizes.  No workload can be 4x the
    300 MiB L3 of the machine the sizes were chosen on within its 7 GiB,
    so the grid workloads leave L2 but a single step may stay in L3."""
    l2, l3 = res["fingerprint"]["l2_bytes"], res["fingerprint"]["l3_bytes"]

    def where(size):
        return ("L2" if size <= l2 else "L3" if size <= l3 else "memory")

    return {
        "working_set_bytes": res["working_set_bytes"],
        "step_working_set_bytes": res["step_working_set_bytes"],
        "l2_bytes": l2,
        "l3_bytes": l3,
        "working_set_fits": where(res["working_set_bytes"]),
        "step_fits": where(res["step_working_set_bytes"]),
    }


def op_quantiles(latencies) -> dict:
    """A compact latency profile; every sample is kept for short runs."""
    if not latencies:
        return {}
    ordered = sorted(latencies)
    n = len(ordered)
    out = {f"p{p:g}": ordered[min(n - 1, int(p / 100.0 * n))]
           for p in (1, 10, 25, 50, 75, 90, 95, 99, 99.9)}
    out["max"] = ordered[-1]
    if n <= 2000:
        out["all"] = [round(v, 6) for v in latencies]
    return out


def summarise(args, res, samples, setup_layer_values, setup_degradations,
              setup_spans) -> dict:
    service_faults = 0
    if args.workload == "serve_mixed":
        svc = res["service"]
        service_faults = (svc["errors"] + svc["accept_drops"]
                          + svc["batch_fallbacks"]
                          + res["daemon_degradations"])
    verify = res["verify"]
    counts = count_failures(res["attempted"], res["failed"],
                            setup_degradations=setup_degradations,
                            reference_ok=verify["ok"],
                            service_faults=service_faults)
    latencies = res["ms"]
    tail_rec = tail(latencies) if latencies else {"value": 0.0}
    peak = res["peak_rss_mb"] + res.get("daemon_peak_rss_mb", 0.0)
    e2e = {
        "setup_s": median(samples["cold"]),
        "restart_s": median(samples["warm"]),
        "op_ms_p50": median(latencies) if latencies else 0.0,
        "op_ms_tail": tail_rec["value"],
        "throughput": res["work"] / res["busy_s"] / 1e9 if res["busy_s"] else 0.0,
        "peak_rss_mb": peak,
        "fail_frac": counts["fail_frac"],
    }
    correct = bool(verify["ok"]) and res["failed"] == 0
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "time": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "fingerprint": res["fingerprint"],
        "end_to_end": e2e,
        "units": {**END_TO_END_UNITS, **PER_LAYER_UNITS},
        "tail": {k: v for k, v in tail_rec.items() if k != "value"},
        "tail_uncapped": tail(latencies, cap=100.0) if latencies else None,
        "setup_samples_s": samples,
        "op_samples": len(latencies),
        "op_errors": res["errors"],
        "ops_ms_quantiles": op_quantiles(latencies),
        "counts": counts,
        "verify": verify,
        "cache_residency": residency(res),
        "throughput_definition": (
            "grid points x time steps (sweep: points x members; serve: "
            "points x steps of each request) / time spent in ops "
            "(serve: window wall time, two clients overlap)"),
        "warnings": res["warnings"],
        "degradations": {"setup": setup_degradations,
                         "total": res["degradations"]},
    }
    if args.workload == "serve_mixed":
        svc = res["service"]
        record["service"] = svc
        record["requests_per_s"] = res["attempted"] / res["busy_s"]
        record["shm_tracked_at_exit"] = res["shm_tracked_at_exit"]
        record["shm_warning"] = res["shm_warning"]
    if args.trace:
        layers = {name: 0.0 for name in PER_LAYER_UNITS}
        layers.update(setup_layer_values)
        layers.update(res["layers"])
        if args.workload == "serve_mixed":
            layers["runtime.server.shm_tracked_at_exit"] = res["shm_tracked_at_exit"]
        record["per_layer"] = layers
        # Layers this workload does not cross, measured on reference.py's
        # probe problem instead.
        record["reference_metrics"] = res["reference_metrics"]
        record["unmeasured"] = sorted(
            k for k in PER_LAYER_UNITS
            if k not in setup_layer_values and k not in res["layers"]
            and k != "runtime.server.shm_tracked_at_exit")
        record["roofline"] = dict(
            res["roofline"],
            label="GB/s computed from array sizes x sweeps, not counted")
        # The measuring worker's own set-up spans are already in its list.
        record["spans"] = res["spans"] + [s for run in setup_spans[:-1] for s in run]
        record["self_time_s"] = self_times(record["spans"])
    return {"record": record, "correct": correct, "counts": counts}


def print_table(record) -> None:
    fp = record["fingerprint"]
    print(f"workload {record['workload']} seed {record['seed']} "
          f"trace {record['trace']}")
    print(f"machine: {fp['cpu_model']}, {fp['cpu_count']} cpu, "
          f"L2 {fp['l2_bytes'] >> 20} MiB, L3 {fp['l3_bytes'] >> 20} MiB, "
          f"{fp['compiler']}, python {fp['python']}, numpy {fp['numpy']}, "
          f"native_threads {fp['native_threads']}")
    res = record["cache_residency"]
    print(f"working set {res['working_set_bytes'] / 2**20:.1f} MiB fits "
          f"{res['working_set_fits']}; one step "
          f"{res['step_working_set_bytes'] / 2**20:.1f} MiB fits "
          f"{res['step_fits']} (L2 {res['l2_bytes'] >> 20} MiB, "
          f"L3 {res['l3_bytes'] >> 20} MiB; GB/s figures are computed)")
    for name, value in record["end_to_end"].items():
        print(f"  {name:<14} {value:>14.6g} {record['units'][name]}")
    tl = record["tail"]
    print(f"  tail = {tl.get('percentile')} of {tl.get('samples')} ops "
          f"({tl.get('beyond')} beyond)")
    print(f"  verify: {record['verify']}")
    print(f"  cpu steal during the run: {record['steal_frac']:.1%}")
    for name, value in record.get("per_layer", {}).items():
        print(f"  {name:<38} {value:>14.6g} {record['units'][name]}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: the program's source is missing ({ROOT / 'src'})",
              file=sys.stderr)
        return 2
    steal0, total0 = cpu_ticks()
    try:
        out = run(args)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    steal1, total1 = cpu_ticks()
    record = out["record"]
    record["steal_frac"] = (steal1 - steal0) / max(1, total1 - total0)
    RAW.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    spans = record.pop("spans", None)
    (RAW / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if spans is not None:
        with open(RAW / f"{stem}.trace.jsonl", "w") as fh:
            for s in sorted(spans, key=lambda s: (s["proc"], s["start"])):
                fh.write(json.dumps(s) + "\n")
    print_table(record)
    if args.trace:
        metrics = {k: {"value": record["per_layer"][k],
                       "unit": PER_LAYER_UNITS[k]} for k in PER_LAYER_UNITS}
    else:
        metrics = {k: {"value": record["end_to_end"][k],
                       "unit": END_TO_END_UNITS[k]}
                   for k in REPORTED_END_TO_END}
    print(json.dumps({
        "correct": out["correct"],
        "attempted": out["counts"]["attempted"],
        "failed": out["counts"]["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
