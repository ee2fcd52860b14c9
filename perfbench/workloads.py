"""The four workloads: inputs from the seed, set-up, one op, checks, probes.

Each workload is driven through the program's public calls only, and
every call the per-layer table names is wrapped in a span of the same
name.  Sizes and why each workload exists are in ``README.md``.

A workload object lives in one worker process:

``setup()``      everything until the workload is ready to run;
``op(i)``        one op (a gradient, an ensemble step, a request);
``check(out)``   the op's own bitwise check, outside its timing;
``verify()``     an independent bitwise reference on the same inputs;
``probe()``      per-layer measurements taken only by traced runs.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import sympy as sp

from repro.apps import burgers_problem, wave_problem
from repro.core import adjoint_loops
from repro.errors import ReproError, ServeError
from repro.frontend import parse_stencil
from repro.runtime import (
    Bindings,
    EnsemblePlan,
    ExecutionConfig,
    KernelClient,
    ShardedCheckpointedAdjoint,
    ShardedPlan,
    clear_kernel_cache,
    compile_nests,
    get_kernel_cache,
    native_toolchain,
    seeded_state,
    stack_arrays,
    state_shapes,
)

from machine import BUILD_DIR, triad_gbps
from stats import count_degradations, shm_tracked

ROOT = Path(__file__).resolve().parent.parent
NPROC = len(os.sched_getaffinity(0))
MIB = float(1 << 20)

# Verification builds its reduced-grid kernels into a cache of its own
# that outlives the run: it is not part of any measured set-up.
VERIFY_CACHE = BUILD_DIR / "verify-cache"


def digest(arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        h.update(f"{name}:{arr.dtype.str}:{arr.shape}".encode())
        h.update(arr.data)
    return h.hexdigest()


def same_bits(a, b) -> bool:
    return sorted(a) == sorted(b) and all(
        a[k].dtype == b[k].dtype and a[k].shape == b[k].shape
        and a[k].tobytes() == b[k].tobytes()
        for k in a
    )


def kernel_arrays(kernel) -> set[str]:
    return {
        name
        for region in kernel.regions
        for st in region.statements
        for name in (st.target.name, *(acc.name for acc in st.reads))
    }


def array_bytes(arrays) -> int:
    return int(sum(a.nbytes for a in arrays.values()))


def timed(tracer, name, fn, repeats):
    """Median seconds of *repeats* calls of *fn*, each in a span."""
    times = []
    for _ in range(repeats):
        with tracer.span(name):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
    return float(np.median(times))


class _VerifyCache:
    """Point the native cache at the persistent verification cache."""

    def __enter__(self):
        self._old = os.environ.get("REPRO_CACHE_DIR")
        os.environ["REPRO_CACHE_DIR"] = str(VERIFY_CACHE)

    def __exit__(self, *exc):
        if self._old is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = self._old


def bound_probe(tracer, fwd, rev, repeats=5) -> dict:
    """Step times, computed bytes and fusion counters of bound plans.

    *fwd* and *rev* are ``(bound plan, arrays)`` pairs, or None where a
    workload has no such step.  Computed bytes of a step are the bytes
    of the arrays its plan binds times the memory sweeps it makes; a
    figure derived from sizes, not from a hardware counter.
    """
    secs = {
        label: timed(tracer, f"runtime.bound.{label}_step", pair[0].run,
                     repeats) if pair else 0.0
        for label, pair in (("fwd", fwd), ("rev", rev))
    }
    plans = [pair for pair in (fwd, rev) if pair]
    total = secs["fwd"] + secs["rev"]
    moved = sum(array_bytes(a) * b.sweep_count for b, a in plans)
    points = next(iter(plans[0][1].values())).size
    return {
        "runtime.bound.fwd_step_ms": secs["fwd"] * 1e3,
        "runtime.bound.rev_step_ms": secs["rev"] * 1e3,
        "runtime.bound.ns_per_pt": total / points * 1e9,
        "runtime.bound.gbps_computed": moved / total / 1e9,
        "runtime.bound.sweeps_per_step": sum(b.sweep_count for b, _ in plans),
        "runtime.bound.fused_groups": sum(b.fused_group_count for b, _ in plans),
        "runtime.bound.native_statements": sum(
            b.native_statement_count for b, _ in plans),
    }


def cache_stats() -> dict:
    st = get_kernel_cache().stats()
    return {"runtime.cache.hits": st["hits"],
            "runtime.cache.misses": st["misses"]}


# -- grad_wave2d_large / grad_wave2d_sharded --------------------------------


class WaveGradient:
    """Revolve-checkpointed wave2d adjoint, single process, OpenMP."""

    # Layers measured on the reference probe (see reference.py).
    reference_groups = frozenset({"parse", "ensemble", "distributed", "serve"})
    n = 2048
    steps = 32
    snaps = 4
    ref_n = 192

    def __init__(self, seed: int, tracer, threads: int = NPROC) -> None:
        self.seed = seed
        self.tracer = tracer
        self.threads = threads
        self.prob = wave_problem(2)
        self.shape = self.prob.array_shape(self.n)
        self.points = int(np.prod(self.shape))
        self.work_per_op = self.points * self.steps
        self.native_threads = threads
        self.first_digest = None

    # inputs ------------------------------------------------------------
    def inputs(self, n):
        prob = self.prob
        rng = np.random.default_rng(self.seed)
        shape = prob.array_shape(n)
        consts = {c: rng.standard_normal(shape) * 0.1
                  for c in prob.constant_fields()}
        state0 = [rng.standard_normal(shape) * 0.1
                  for _ in prob.history_fields()]
        out_adj = prob.adjoint_name_map()[prob.output_name]
        seed = prob.allocate_adjoints(n, rng=rng)[out_adj]
        return consts, state0, seed

    def kernels(self, n):
        prob, t = self.prob, self.tracer
        bindings = prob.bindings(n)
        with t.span("core.derive"):
            nests = adjoint_loops(prob.primal, prob.adjoint_map)
        with t.span("runtime.compiler.compile"):
            fwd = compile_nests([prob.primal], bindings, name=prob.name)
        with t.span("runtime.compiler.compile"):
            rev = compile_nests(nests, bindings, name=f"{prob.name}_b")
        return fwd, rev

    def plans(self, fwd, rev, backend="native", threads=None):
        threads = self.threads if threads is None else threads
        with self.tracer.span("runtime.plan.plan"):
            fplan = fwd.plan(backend=backend, fusion="auto",
                             native_threads=threads)
        with self.tracer.span("runtime.plan.plan"):
            rplan = rev.plan(backend=backend, fusion="auto",
                             native_threads=threads)
        return fplan, rplan

    def step_arrays(self, fwd, rev, consts, state0, seed):
        """Workload-shaped arrays for one forward and one reverse step."""
        prob = self.prob
        hist = prob.history_fields()
        amap = prob.adjoint_name_map()
        pool = {prob.output_name: np.zeros(self.shape),
                **dict(zip(hist, state0)), **consts,
                amap[prob.output_name]: seed}
        for name in (*hist, *consts):
            pool[amap[name]] = np.zeros(self.shape)
        return ({k: pool[k] for k in kernel_arrays(fwd)},
                {k: pool[k] for k in kernel_arrays(rev)})

    def checkpointed(self, fplan, rplan, n, consts):
        prob = self.prob
        return fplan.checkpointed_adjoint(
            rplan, prob.array_shape(n), steps=self.steps, snaps=self.snaps,
            output=prob.output_name, history=prob.history_fields(),
            constants=consts, adjoint_map=prob.adjoint_name_map(),
        )

    # set-up ------------------------------------------------------------
    def setup(self) -> None:
        t = self.tracer
        self.fwd, self.rev = self.kernels(self.n)
        self.fplan, self.rplan = self.plans(self.fwd, self.rev)
        self.consts, self.state0, self.seed_adj = self.inputs(self.n)
        self.fwd_arrays, self.rev_arrays = self.step_arrays(
            self.fwd, self.rev, self.consts, self.state0, self.seed_adj)
        # The first bind of each plan on workload-shaped arrays is where
        # codegen, cc and loading happen (fused geometry is per shape).
        with t.span("runtime.native.bind"):
            self.fbound = self.fplan.bind(self.fwd_arrays)
        with t.span("runtime.native.bind"):
            self.rbound = self.rplan.bind(self.rev_arrays)
        with t.span("runtime.checkpoint.build"):
            self.chk = self.checkpointed(self.fplan, self.rplan, self.n,
                                         self.consts)

    # op ----------------------------------------------------------------
    def op(self, i):
        with self.tracer.span("runtime.checkpoint.adjoint"):
            return self.chk.adjoint(self.state0, self.seed_adj)

    def check(self, out) -> bool:
        d = digest(out)
        if self.first_digest is None:
            self.first_digest = d
        return d == self.first_digest

    # reference ---------------------------------------------------------
    def reduced_under_test(self, fwd, rev, consts, state0, seed):
        fplan, rplan = self.plans(fwd, rev)
        with self.checkpointed(fplan, rplan, self.ref_n, consts) as chk:
            return {k: v.copy() for k, v in chk.adjoint(state0, seed).items()}

    def verify(self) -> dict:
        """Reduced grid: the path under test against the python backend,
        and the checkpointed sweep against the store-all sweep."""
        with _VerifyCache():
            fwd, rev = self.kernels(self.ref_n)
            consts, state0, seed = self.inputs(self.ref_n)
            got = self.reduced_under_test(fwd, rev, consts, state0, seed)
            fplan, rplan = self.plans(fwd, rev, backend="python", threads=1)
            with self.checkpointed(fplan, rplan, self.ref_n, consts) as chk:
                ref = {k: v.copy()
                       for k, v in chk.adjoint(state0, seed).items()}
                store = chk.run_store_all(state0, seed)
                store_ok = same_bits(ref, store)
        return {"ok": bool(same_bits(got, ref) and store_ok),
                "digest": self.first_digest,
                "reference": f"python backend + run_store_all at n={self.ref_n}",
                "store_all_ok": bool(store_ok)}

    # probes ------------------------------------------------------------
    def probe(self, window_spans) -> dict:
        t = self.tracer
        out = {}
        adj = [s["end"] - s["start"] for s in window_spans
               if s["name"] == "runtime.checkpoint.adjoint"]
        adjoint_s = float(np.median(adj))
        fsteps = self.chk.forward_steps
        with t.span("runtime.checkpoint.forward"):
            t0 = time.perf_counter()
            self.chk.run_forward(self.state0)
            forward_s = time.perf_counter() - t0
        snapshot = self.chk.snapshot_pool.nbytes
        self.close_main()
        b = bound_probe(t, (self.fbound, self.fwd_arrays),
                        (self.rbound, self.rev_arrays))
        out.update(b)
        out["runtime.checkpoint.forward_s"] = forward_s
        out["runtime.checkpoint.adjoint_s"] = adjoint_s
        out["runtime.checkpoint.recompute_ratio"] = fsteps / self.steps
        out["runtime.checkpoint.overhead_s"] = adjoint_s - (
            fsteps * b["runtime.bound.fwd_step_ms"]
            + self.steps * b["runtime.bound.rev_step_ms"]) / 1e3
        out["runtime.checkpoint.snapshot_mb"] = snapshot / MIB
        out.update(cache_stats())
        out["runtime.native.bind_warm_ms"] = self.bind_warm() * 1e3
        return out

    def bind_warm(self) -> float:
        """The first bind again after clear_kernel_cache(), disk cache full."""
        clear_kernel_cache()
        fwd, rev = self.kernels(self.n)
        fplan, rplan = self.plans(fwd, rev)
        total = 0.0
        for plan, arrays in ((fplan, self.fwd_arrays), (rplan, self.rev_arrays)):
            with self.tracer.span("runtime.native.bind_warm"):
                t0 = time.perf_counter()
                plan.bind(arrays)
                total += time.perf_counter() - t0
        return total

    @property
    def working_set(self) -> int:
        """Distinct fields of both kernels plus the snapshot slots."""
        fields = len(kernel_arrays(self.fwd) | kernel_arrays(self.rev))
        slots = self.snaps * len(self.prob.history_fields())
        return (fields + slots) * self.points * 8

    @property
    def step_working_set(self) -> int:
        """The arrays of the larger of one forward and one reverse step."""
        fields = max(len(kernel_arrays(self.fwd)), len(kernel_arrays(self.rev)))
        return fields * self.points * 8

    def close_main(self) -> None:
        chk, self.chk = getattr(self, "chk", None), None
        if chk is not None:
            chk.close()

    def close(self) -> None:
        self.close_main()


class ShardedWaveGradient(WaveGradient):
    """The same gradient over ``NPROC`` forked shard ranks."""

    reference_groups = frozenset({"parse", "ensemble", "serve"})

    def __init__(self, seed: int, tracer) -> None:
        super().__init__(seed, tracer, threads=1)
        self.nranks = NPROC
        self.config = ExecutionConfig(backend="native", fusion="auto",
                                      native_threads=1)

    def sharded(self, fwd, rev, n, consts):
        prob = self.prob
        return ShardedCheckpointedAdjoint(
            fwd, rev, prob.array_shape(n), nranks=self.nranks,
            halo=prob.halo, steps=self.steps, snaps=self.snaps,
            output=prob.output_name, history=prob.history_fields(),
            constants=consts, adjoint_map=prob.adjoint_name_map(),
            config=self.config,
        )

    def setup(self) -> None:
        self.fwd, self.rev = self.kernels(self.n)
        self.consts, self.state0, self.seed_adj = self.inputs(self.n)
        # Per-rank plans are built and bound (codegen, cc, load) inside
        # the sharded plan, together with the slabs and the fork.
        with self.tracer.span("runtime.native.bind"):
            self.chk = self.sharded(self.fwd, self.rev, self.n, self.consts)

    def op(self, i):
        with self.tracer.span("runtime.checkpoint.adjoint"):
            return self.chk.adjoint(self.state0, self.seed_adj)

    def reduced_under_test(self, fwd, rev, consts, state0, seed):
        with self.sharded(fwd, rev, self.ref_n, consts) as sh:
            return sh.adjoint(state0, seed)

    def probe(self, window_spans) -> dict:
        degraded = int(self.chk.degraded)
        # Single-process bound plans at the ranks' thread width give the
        # step times the checkpoint overhead is computed against.
        self.fwd_arrays, self.rev_arrays = self.step_arrays(
            self.fwd, self.rev, self.consts, self.state0, self.seed_adj)
        t = self.tracer
        mark = len(t.spans)
        fplan, rplan = self.plans(self.fwd, self.rev)
        plan_s = sum(s["end"] - s["start"] for s in t.spans[mark:]
                     if s["name"] == "runtime.plan.plan")
        self.fbound = fplan.bind(self.fwd_arrays)
        self.rbound = rplan.bind(self.rev_arrays)
        out = super().probe(window_spans)
        # The ranks plan inside ShardedPlan; these are the unsharded plans.
        out["runtime.plan.plan_ms"] = plan_s * 1e3
        plan = self.probe_plan
        hist = self.prob.history_fields()
        amap = self.prob.adjoint_name_map()
        exchange = [n for n in (amap[self.prob.output_name], *hist)
                    if n in self.rev_arrays]
        accumulate = [amap[n] for n in (*hist, *self.consts)
                      if amap[n] in self.rev_arrays]
        with plan:
            out["runtime.distributed.step_ms"] = 1e3 * timed(
                t, "runtime.distributed.step",
                lambda: plan.step("main", exchange=exchange,
                                  accumulate=accumulate), 5)
            out["runtime.distributed.exchange_ms"] = 1e3 * timed(
                t, "runtime.distributed.exchange",
                lambda: plan.exchange(exchange), 5)
            out["runtime.distributed.accumulate_ms"] = 1e3 * timed(
                t, "runtime.distributed.accumulate",
                lambda: plan.accumulate_back(accumulate), 5)
            out["runtime.distributed.degraded"] = degraded + int(plan.degraded)
        return out

    def bind_warm(self) -> float:
        """A probe sharded plan of the reverse kernel on workload-shaped
        arrays, built after clear_kernel_cache() with the disk cache full:
        per-rank binds, slabs and fork, as in this workload's set-up."""
        clear_kernel_cache()
        _, rev = self.kernels(self.n)
        with self.tracer.span("runtime.native.bind_warm"):
            t0 = time.perf_counter()
            self.probe_plan = ShardedPlan(
                rev, self.rev_arrays, nranks=self.nranks,
                halo=self.prob.halo, config=self.config)
            return time.perf_counter() - t0


# -- sweep_burgers2d_small -----------------------------------------------------


class BurgersSweep:
    """An ensemble of burgers2d adjoint members, one EnsemblePlan.run per op."""

    reference_groups = frozenset({"parse", "checkpoint", "distributed", "serve"})

    n = 64
    members = 16

    def __init__(self, seed: int, tracer) -> None:
        self.seed = seed
        self.tracer = tracer
        self.prob = burgers_problem(2)
        self.points = int(np.prod(self.prob.array_shape(self.n)))
        self.work_per_op = self.points * self.members
        self.native_threads = 1

    def kernel(self):
        prob, t = self.prob, self.tracer
        with t.span("core.derive"):
            nests = adjoint_loops(prob.primal, prob.adjoint_map)
        with t.span("runtime.compiler.compile"):
            rev = compile_nests(nests, prob.bindings(self.n),
                                name=f"{prob.name}_b")
        return rev

    def plan(self, rev, backend="native"):
        with self.tracer.span("runtime.plan.plan"):
            return rev.plan(backend=backend, fusion="auto", native_threads=1)

    def setup(self) -> None:
        self.rev = self.kernel()
        self.rplan = self.plan(self.rev)
        names = kernel_arrays(self.rev)
        scenarios = [
            self.prob.allocate_state(self.n, seed=self.seed * 1000 + m)
            for m in range(self.members)
        ]
        self.batched = stack_arrays(
            [{k: s[k] for k in names} for s in scenarios])
        self.initial = {k: v.copy() for k, v in self.batched.items()}
        with self.tracer.span("runtime.native.bind"):
            self.ens = EnsemblePlan(self.rplan, self.batched)

    def op(self, i):
        with self.tracer.span("runtime.ensemble.run"):
            self.ens.run()

    def check(self, out) -> bool:
        return True  # checked as a whole by verify()

    def verify(self) -> dict:
        """Two ensemble steps from the initial state against each member
        stepped alone on the python backend."""
        for k, v in self.initial.items():
            np.copyto(self.batched[k], v)
        for _ in range(2):
            self.ens.run()
        pplan = self.rev.plan(backend="python", fusion="auto",
                              native_threads=1)
        ok = True
        for m in range(self.members):
            arrays = {k: v[m].copy() for k, v in self.initial.items()}
            bound = pplan.bind(arrays)
            for _ in range(2):
                bound.run()
            got = {k: v[m] for k, v in self.batched.items()}
            ok = ok and same_bits(arrays, got)
        return {"ok": bool(ok), "digest": digest(self.batched),
                "reference": "python backend, members stepped one by one"}

    def probe(self, window_spans) -> dict:
        t = self.tracer
        run = [s["end"] - s["start"] for s in window_spans
               if s["name"] == "runtime.ensemble.run"]
        members = [self.rplan.bind(self.ens.member_arrays(m))
                   for m in range(self.members)]

        def loop():
            for b in members:
                b.run()

        for _ in range(20):
            loop()
        loop_s = timed(t, "runtime.ensemble.loop", loop, 300)
        run_s = float(np.median(run))
        out = {
            "runtime.ensemble.run_us": run_s * 1e6,
            "runtime.ensemble.loop_us": loop_s * 1e6,
            "runtime.ensemble.batched_over_loop": run_s / loop_s,
            "runtime.ensemble.native_statements": self.ens.native_statement_count,
            "runtime.ensemble.batched_statements": self.ens.batched_statement_count,
            "runtime.ensemble.member_statements": self.ens.member_statement_count,
        }
        # The sweep runs no forward step; the member's primal stands in,
        # so the bound figures describe one forward + reverse pair.
        member0 = self.ens.member_arrays(0)
        primal = compile_nests([self.prob.primal], self.prob.bindings(self.n),
                               name=self.prob.name)
        p_arrays = {k: member0[k] if k in member0 else
                    np.zeros_like(next(iter(member0.values())))
                    for k in kernel_arrays(primal)}
        pbound = self.plan(primal).bind(p_arrays)
        out.update(bound_probe(
            t, (pbound, p_arrays), (members[0], member0), repeats=300))
        out.update(cache_stats())
        clear_kernel_cache()
        rplan = self.plan(self.kernel())
        with t.span("runtime.native.bind_warm"):
            t0 = time.perf_counter()
            EnsemblePlan(rplan, self.batched)
            out["runtime.native.bind_warm_ms"] = (time.perf_counter() - t0) * 1e3
        return out

    @property
    def working_set(self) -> int:
        return array_bytes(self.batched)

    step_working_set = working_set

    def close(self) -> None:
        ens, self.ens = getattr(self, "ens", None), None
        if ens is not None:
            ens.close()


# -- serve_mixed -----------------------------------------------------------------

SERVE_SPECS = (
    ("stencil smooth1 {\n  iterate i = 1 .. n-2\n"
     "  u[i] += c*(v[i-1] - 2.0*v[i] + v[i+1])\n}\n",
     {"n": 2048}, {"c": 0.25}),
    ("stencil lap2 {\n  iterate i = 1 .. n-2, j = 1 .. n-2\n"
     "  u[i,j] += c*(v[i-1,j] + v[i+1,j] + v[i,j-1] + v[i,j+1]"
     " - 4.0*v[i,j])\n}\n",
     {"n": 256}, {"c": 0.125}),
)
SERVE_BACKENDS = ("python", "native")
SERVE_STEPS = 4
SERVE_STATES = 4
SERVE_CLIENTS = 2


def request_plan(client: int, k: int):
    """(kernel, backend, by_spec, state) of a client's k-th request."""
    return (k % 2, SERVE_BACKENDS[(k // 2) % 2], (k // 4) % 2 == 0,
            (k // 8 + client) % SERVE_STATES)


def _die_with_parent() -> None:
    """In the forked daemon: exit if the worker that started it dies."""
    import ctypes
    import signal

    ctypes.CDLL(None).prctl(1, signal.SIGTERM)  # PR_SET_PDEATHSIG


class _Daemon:
    """One ``repro serve`` process with default settings."""

    def __init__(self, sock: str, cache_dir: Path) -> None:
        env = dict(os.environ, REPRO_CACHE_DIR=str(cache_dir),
                   PYTHONPATH=str(ROOT / "src"))
        self.sock = sock
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", sock],
            cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, preexec_fn=_die_with_parent,
        )
        self.client = KernelClient(sock, timeout=60.0)
        deadline = time.perf_counter() + 60.0
        while True:
            try:
                self.client.ping()
                break
            except ServeError:
                if self.proc.poll() is not None or time.perf_counter() > deadline:
                    self.stop()
                    raise RuntimeError("kernel daemon did not come up")
                time.sleep(0.005)

    def peak_rss_mb(self) -> float:
        try:
            for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        except OSError:
            pass
        return 0.0

    def stop(self) -> str:
        """Shut the daemon down and return its stderr once every process
        holding it (the daemon and its resource tracker) has exited."""
        try:
            self.client.shutdown()
        except ReproError:
            self.proc.terminate()
        finally:
            self.client.close()
        try:
            _, err = self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            _, err = self.proc.communicate()
        return err or ""


class ServeMixed:
    """Two closed-loop clients against the kernel daemon."""

    reference_groups = frozenset({"checkpoint", "ensemble", "distributed"})

    def __init__(self, seed: int, tracer, cold: int, warm: int,
                 run_dir: Path) -> None:
        self.seed = seed
        self.tracer = tracer
        self.cold = cold
        self.warm = warm
        self.run_dir = run_dir
        self.native_threads = 1
        self.daemon = None
        self.setup_samples = {"cold": [], "warm": []}
        self.daemon_errors = []
        self.degradations = 0
        self.shm_tracked = 0
        self.shm_warning = ""
        self.peak_daemon_mb = 0.0
        self.so_built = []

    def setup(self) -> None:
        """In-process reference path, then the daemon's cold and warm
        set-ups; the last warm daemon stays up for the timed window."""
        t = self.tracer
        self.nests, self.kernels, self.states, self.expected = [], [], [], []
        for spec, sizes, params in SERVE_SPECS:
            nest = parse_stencil(spec)
            bindings = Bindings(sizes=sizes, params=params)
            with t.span("runtime.compiler.compile"):
                kernel = compile_nests([nest], bindings, name=nest.name)
            states = [seeded_state(nest, bindings, seed=self.seed * 100 + s)
                      for s in range(SERVE_STATES)]
            expected = []
            for st in states:
                arrays = {k: v.copy() for k, v in st.items()}
                for _ in range(SERVE_STEPS):
                    for region in kernel.regions:
                        region.execute(arrays)
                expected.append(arrays)
            self.nests.append(nest)
            self.kernels.append(kernel)
            self.states.append(states)
            self.expected.append(expected)
        self.direct = {}
        for ki, kernel in enumerate(self.kernels):
            for be in SERVE_BACKENDS:
                with t.span("runtime.plan.plan"):
                    plan = kernel.plan(backend=be)
                arrays = {k: np.zeros_like(v) for k, v in self.states[ki][0].items()}
                if be == "native":
                    with t.span("runtime.native.bind"):
                        bound = plan.bind(arrays)
                else:
                    bound = plan.bind(arrays)
                self.direct[ki, be] = (arrays, bound)
        for k in range(self.cold + self.warm):
            cache = self.run_dir / ("daemon-cold0" if k >= self.cold
                                    else f"daemon-cold{k}")
            last = k == self.cold + self.warm - 1
            seconds, daemon = self.daemon_setup(cache, k)
            self.setup_samples["cold" if k < self.cold else "warm"].append(seconds)
            if k < self.cold:
                self.so_built.append(len(list((cache / "native").glob("*.so"))))
            if last:
                self.daemon = daemon
            else:
                self.absorb(daemon.stop())

    def daemon_setup(self, cache: Path, k: int):
        t = self.tracer
        t0 = time.perf_counter()
        daemon = _Daemon(str((self.run_dir / f"d{k}.sock").relative_to(ROOT)), cache)
        self.ids = []
        for ki, (spec, sizes, params) in enumerate(SERVE_SPECS):
            with t.span("runtime.client.compile", op=k):
                kid = daemon.client.compile(spec, sizes=sizes, params=params)
            self.ids.append(kid)
            for be in SERVE_BACKENDS:
                with t.span("runtime.client.first_run", op=k):
                    res = daemon.client.run(
                        kernel_id=kid, state=self.states[ki][0],
                        steps=SERVE_STEPS, backend=be)
                if not same_bits(res.state, self.expected[ki][0]):
                    self.daemon_errors.append(f"set-up {k}: wrong first answer")
        return time.perf_counter() - t0, daemon

    def absorb(self, stderr: str) -> None:
        lines = stderr.splitlines()
        self.degradations += count_degradations(lines)
        self.shm_tracked = shm_tracked(stderr)
        self.shm_warning = next(
            (line for line in lines if "leaked shared_memory" in line), "")

    def request(self, client, c, k):
        ki, be, by_spec, si = request_plan(c, k)
        spec, sizes, params = SERVE_SPECS[ki]
        name = "runtime.client.request_spec" if by_spec else "runtime.client.request_id"
        with self.tracer.span(name):
            if by_spec:
                res = client.run(spec, sizes=sizes, params=params,
                                 state=self.states[ki][si],
                                 steps=SERVE_STEPS, backend=be)
            else:
                res = client.run(kernel_id=self.ids[ki],
                                 state=self.states[ki][si],
                                 steps=SERVE_STEPS, backend=be)
        return res, (ki, si, by_spec)

    def measure(self, seconds: float, on_op) -> float:
        """Closed loop of SERVE_CLIENTS clients; returns window wall time."""
        start = time.perf_counter()
        end = start + seconds
        errors = []

        def client_loop(c):
            try:
                with KernelClient(self.daemon.sock, timeout=60.0) as client:
                    k = 0
                    while time.perf_counter() < end:
                        on_op(lambda i, c=c, k=k: self.request(client, c, k))
                        k += 1
            except Exception as exc:  # reported, never swallowed
                errors.append(repr(exc))

        threads = [threading.Thread(target=client_loop, args=(c,))
                   for c in range(SERVE_CLIENTS)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        self.daemon_errors.extend(errors)
        return time.perf_counter() - start

    def check(self, out) -> bool:
        res, (ki, si, _) = out
        return same_bits(res.state, self.expected[ki][si])

    def work(self, out) -> int:
        _, (ki, _, _) = out
        return SERVE_STEPS * int(np.prod(self.states[ki][0]["v"].shape))

    def verify(self) -> dict:
        """The warm in-process bound plans against the seed serial path."""
        ok = True
        for (ki, be), (arrays, bound) in self.direct.items():
            for si, st in enumerate(self.states[ki]):
                for k, v in st.items():
                    np.copyto(arrays[k], v)
                for _ in range(SERVE_STEPS):
                    bound.run()
                ok = ok and same_bits(arrays, self.expected[ki][si])
        return {"ok": bool(ok and not self.daemon_errors),
                "digest": digest({f"{ki}.{si}.{k}": v
                                  for ki, exp in enumerate(self.expected)
                                  for si, arrays in enumerate(exp)
                                  for k, v in arrays.items()}),
                "reference": "seed serial path (RegionKernel.execute)",
                "daemon_errors": self.daemon_errors[:5]}

    def service_stats(self) -> dict:
        return self.daemon.client.stats()

    def direct_ms(self) -> float:
        """The request mix run in-process: copy in, steps, copy out."""
        t = self.tracer
        times = []
        for k in range(8 * 25):
            ki, be, _, si = request_plan(0, k)
            arrays, bound = self.direct[ki, be]
            src = self.states[ki][si]
            with t.span("runtime.server.direct"):
                t0 = time.perf_counter()
                for name, arr in src.items():
                    np.copyto(arrays[name], arr)
                for _ in range(SERVE_STEPS):
                    bound.run()
                # Copy out, as the daemon answers with fresh arrays.
                {name: arr.copy() for name, arr in arrays.items()}
                times.append(time.perf_counter() - t0)
        return float(np.median(times)) * 1e3

    def probe(self, window_spans, untraced_p50_ms) -> dict:
        t = self.tracer

        def p50(name):
            d = [s["end"] - s["start"] for s in window_spans if s["name"] == name]
            return float(np.median(d)) * 1e3 if d else 0.0

        stats = self.service_stats()
        direct = self.direct_ms()
        parse = [timed(t, "frontend.parse", lambda: parse_stencil(spec), 10)
                 for spec, _, _ in SERVE_SPECS]
        out = {
            "frontend.parse_ms": float(np.median(parse)) * 1e3,
            "runtime.client.request_spec_ms": p50("runtime.client.request_spec"),
            "runtime.client.request_id_ms": p50("runtime.client.request_id"),
            "runtime.server.direct_ms": direct,
            "runtime.server.served_over_direct": untraced_p50_ms / direct,
            "runtime.server.batch_share": stats["batched_requests"] / max(1, stats["requests"]),
            "runtime.server.mean_batch": (
                stats["batched_requests"] / stats["batched_runs"]
                if stats["batched_runs"] else 1.0),
            "runtime.server.errors": stats["errors"],
            "runtime.server.accept_drops": stats["accept_drops"],
            "runtime.server.batch_fallbacks": stats["batch_fallbacks"],
        }
        # The served 2-D kernel's native bound plan and its adjoint make
        # the forward + reverse pair; deriving that adjoint is the only
        # use of core here (served kernels run forward only).
        arrays, bound = self.direct[1, "native"]
        adj, adj_arrays = self.served_adjoint(1)
        out["core.derive_ms"] = adj["derive_s"] * 1e3
        out.update(bound_probe(t, (bound, arrays), (adj["bound"], adj_arrays),
                               repeats=50))
        out.update(cache_stats())
        clear_kernel_cache()
        total = 0.0
        for ki, (spec, sizes, params) in enumerate(SERVE_SPECS):
            kernel = compile_nests([self.nests[ki]], Bindings(sizes=sizes, params=params),
                                   name=self.nests[ki].name)
            plan = kernel.plan(backend="native")
            with t.span("runtime.native.bind_warm"):
                t0 = time.perf_counter()
                plan.bind({k: np.zeros_like(v) for k, v in self.states[ki][0].items()})
                total += time.perf_counter() - t0
        out["runtime.native.bind_warm_ms"] = total * 1e3
        return out

    def served_adjoint(self, ki: int):
        """Derive, compile and bind the adjoint of served kernel *ki*."""
        nest = self.nests[ki]
        _, sizes, params = SERVE_SPECS[ki]
        bindings = Bindings(sizes=sizes, params=params)
        st = nest.statements[0]
        funcs = {acc.func for acc in (st.lhs, *st.read_accesses())}
        amap = {f: sp.Function(f"{f.__name__}_b") for f in funcs}
        with self.tracer.span("core.derive"):
            t0 = time.perf_counter()
            nests = adjoint_loops(nest, amap)
            derive_s = time.perf_counter() - t0
        kernel = compile_nests(nests, bindings, name=f"{nest.name}_b")
        shapes: dict = {}
        for n in nests:
            for name, shape in state_shapes(n, bindings).items():
                shapes[name] = tuple(
                    max(a, b) for a, b in zip(shapes.get(name, shape), shape))
        rng = np.random.default_rng(self.seed)
        arrays = {name: rng.standard_normal(shape)
                  for name, shape in sorted(shapes.items())}
        bound = kernel.plan(backend="native").bind(arrays)
        return {"derive_s": derive_s, "bound": bound}, arrays

    @property
    def working_set(self) -> int:
        return int(sum(array_bytes(s[0]) for s in self.states))

    @property
    def step_working_set(self) -> int:
        return array_bytes(self.states[1][0])

    def close(self) -> None:
        daemon, self.daemon = self.daemon, None
        if daemon is not None:
            self.peak_daemon_mb = daemon.peak_rss_mb()
            self.absorb(daemon.stop())


def roofline(working_set: int, threads: int) -> dict:
    return triad_gbps(working_set, threads, native_toolchain())
