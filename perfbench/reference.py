"""The reference probe: layers a workload does not cross, measured anyway.

Every traced run reports every per-layer metric.  A layer the workload
does not cross (the sweep never checkpoints, the gradients never serve)
is measured here, on one small fixed problem — heat2d at n=128 on the
native backend, and the 1-D served spec — so that each figure is a
measurement of that layer's public call rather than a placeholder.
The record lists which metrics came from this probe; they should not
move with a change that only touches the workload.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from repro.apps import heat_problem
from repro.core import adjoint_loops
from repro.frontend import parse_stencil
from repro.runtime import (
    Bindings,
    EnsemblePlan,
    ExecutionConfig,
    ShardedPlan,
    compile_nests,
    seeded_state,
    stack_arrays,
)

import workloads as wl
from stats import shm_tracked

N = 128
STEPS = 16
SNAPS = 3
MEMBERS = 4
NATIVE = {"backend": "native", "fusion": "auto", "native_threads": 1}

def parse_ms(tracer) -> float:
    """Median ``parse_stencil`` time over the served specs."""
    return 1e3 * float(np.median([
        wl.timed(tracer, "frontend.parse", lambda: parse_stencil(spec), 10)
        for spec, _, _ in wl.SERVE_SPECS
    ]))


class _Heat:
    """heat2d at n=N: kernels, native plans, one state."""

    def __init__(self) -> None:
        self.prob = heat_problem(2)
        bindings = self.prob.bindings(N)
        self.fwd = compile_nests([self.prob.primal], bindings, name="ref_heat")
        self.rev = compile_nests(
            adjoint_loops(self.prob.primal, self.prob.adjoint_map), bindings,
            name="ref_heat_b")
        self.fplan = self.fwd.plan(**NATIVE)
        self.rplan = self.rev.plan(**NATIVE)
        self.state = self.prob.allocate_state(N, seed=0)

    def arrays(self, kernel, state=None) -> dict:
        state = self.state if state is None else state
        return {k: state[k] for k in wl.kernel_arrays(kernel)}


def checkpoint(tracer, heat: _Heat) -> dict:
    prob = heat.prob
    fb = heat.fplan.bind(heat.arrays(heat.fwd))
    rb = heat.rplan.bind(heat.arrays(heat.rev))
    f_s = wl.timed(tracer, "reference.bound.fwd_step", fb.run, 20)
    r_s = wl.timed(tracer, "reference.bound.rev_step", rb.run, 20)
    amap = prob.adjoint_name_map()
    state0 = [heat.state[h].copy() for h in prob.history_fields()]
    seed = heat.state[amap[prob.output_name]].copy()
    with prob.checkpointed_adjoint(N, steps=STEPS, snaps=SNAPS,
                                   **NATIVE) as chk:
        forward_s = wl.timed(tracer, "runtime.checkpoint.forward",
                             lambda: chk.run_forward(state0), 3)
        adjoint_s = wl.timed(tracer, "runtime.checkpoint.adjoint",
                             lambda: chk.adjoint(state0, seed), 3)
        fsteps = chk.forward_steps
        snapshot = chk.snapshot_pool.nbytes
    return {
        "runtime.checkpoint.forward_s": forward_s,
        "runtime.checkpoint.adjoint_s": adjoint_s,
        "runtime.checkpoint.recompute_ratio": fsteps / STEPS,
        "runtime.checkpoint.overhead_s": adjoint_s - (fsteps * f_s + STEPS * r_s),
        "runtime.checkpoint.snapshot_mb": snapshot / wl.MIB,
    }


def ensemble(tracer, heat: _Heat) -> dict:
    states = [heat.prob.allocate_state(N, seed=m) for m in range(MEMBERS)]
    batched = stack_arrays([heat.arrays(heat.rev, s) for s in states])
    with EnsemblePlan(heat.rplan, batched) as ens:
        members = [heat.rplan.bind(ens.member_arrays(m))
                   for m in range(MEMBERS)]

        def loop():
            for b in members:
                b.run()

        for _ in range(10):
            ens.run()
            loop()
        run_s = wl.timed(tracer, "runtime.ensemble.run", ens.run, 200)
        loop_s = wl.timed(tracer, "runtime.ensemble.loop", loop, 200)
        return {
            "runtime.ensemble.run_us": run_s * 1e6,
            "runtime.ensemble.loop_us": loop_s * 1e6,
            "runtime.ensemble.batched_over_loop": run_s / loop_s,
            "runtime.ensemble.native_statements": ens.native_statement_count,
            "runtime.ensemble.batched_statements": ens.batched_statement_count,
            "runtime.ensemble.member_statements": ens.member_statement_count,
        }


def distributed(tracer, heat: _Heat) -> dict:
    arrays = {k: v.copy() for k, v in heat.arrays(heat.rev).items()}
    amap = heat.prob.adjoint_name_map()
    hist = heat.prob.history_fields()
    exchange = [n for n in (amap[heat.prob.output_name], *hist) if n in arrays]
    accumulate = [amap[n] for n in hist if amap[n] in arrays]
    with ShardedPlan(heat.rev, arrays, nranks=wl.NPROC, halo=heat.prob.halo,
                     config=ExecutionConfig(**NATIVE)) as plan:
        out = {
            "runtime.distributed.step_ms": 1e3 * wl.timed(
                tracer, "runtime.distributed.step",
                lambda: plan.step("main", exchange=exchange,
                                  accumulate=accumulate), 20),
            "runtime.distributed.exchange_ms": 1e3 * wl.timed(
                tracer, "runtime.distributed.exchange",
                lambda: plan.exchange(exchange), 20),
            "runtime.distributed.accumulate_ms": 1e3 * wl.timed(
                tracer, "runtime.distributed.accumulate",
                lambda: plan.accumulate_back(accumulate), 20),
            "runtime.distributed.degraded": int(plan.degraded),
        }
    return out


def serve(tracer, run_dir: Path) -> dict:
    """A daemon serving the 1-D spec: compile, 40 requests, direct."""
    spec, sizes, params = wl.SERVE_SPECS[0]
    nest = parse_stencil(spec)
    bindings = Bindings(sizes=sizes, params=params)
    state = seeded_state(nest, bindings, seed=0)
    kernel = compile_nests([nest], bindings, name=nest.name)
    arrays = {k: np.zeros_like(v) for k, v in state.items()}
    bound = kernel.plan(backend="native").bind(arrays)

    def direct():
        for k, v in state.items():
            np.copyto(arrays[k], v)
        for _ in range(wl.SERVE_STEPS):
            bound.run()
        return {k: v.copy() for k, v in arrays.items()}

    direct_s = wl.timed(tracer, "runtime.server.direct", direct, 50)
    daemon = wl._Daemon(str((run_dir / "ref.sock").relative_to(wl.ROOT)),
                        wl.VERIFY_CACHE)
    try:
        with tracer.span("runtime.client.compile"):
            t0 = time.perf_counter()
            kid = daemon.client.compile(spec, sizes=sizes, params=params)
            compile_s = time.perf_counter() - t0
        times = {True: [], False: []}
        for k in range(40):
            by_spec = k % 2 == 0
            name = ("runtime.client.request_spec" if by_spec
                    else "runtime.client.request_id")
            with tracer.span(name):
                t0 = time.perf_counter()
                if by_spec:
                    daemon.client.run(spec, sizes=sizes, params=params,
                                      state=state, steps=wl.SERVE_STEPS,
                                      backend="native")
                else:
                    daemon.client.run(kernel_id=kid, state=state,
                                      steps=wl.SERVE_STEPS, backend="native")
                times[by_spec].append(time.perf_counter() - t0)
        stats = daemon.client.stats()
    finally:
        stderr = daemon.stop()
    served = float(np.median(times[True] + times[False]))
    return {
        "runtime.client.compile_ms": compile_s * 1e3,
        "runtime.client.request_spec_ms": 1e3 * float(np.median(times[True])),
        "runtime.client.request_id_ms": 1e3 * float(np.median(times[False])),
        "runtime.server.direct_ms": direct_s * 1e3,
        "runtime.server.served_over_direct": served / direct_s,
        "runtime.server.batch_share":
            stats["batched_requests"] / max(1, stats["requests"]),
        "runtime.server.mean_batch": (
            stats["batched_requests"] / stats["batched_runs"]
            if stats["batched_runs"] else 1.0),
        "runtime.server.errors": stats["errors"],
        "runtime.server.accept_drops": stats["accept_drops"],
        "runtime.server.batch_fallbacks": stats["batch_fallbacks"],
        "runtime.server.shm_tracked_at_exit": shm_tracked(stderr),
    }


def measure(tracer, groups, run_dir: Path) -> dict:
    """Per-layer metrics of *groups* (parse, checkpoint, ensemble,
    distributed, serve) measured on the probe problem."""
    out: dict = {}
    with wl._VerifyCache(), tracer.span("reference"):
        if "parse" in groups:
            out["frontend.parse_ms"] = parse_ms(tracer)
        heat = _Heat() if groups & {"checkpoint", "ensemble", "distributed"} else None
        if "checkpoint" in groups:
            out.update(checkpoint(tracer, heat))
        if "ensemble" in groups:
            out.update(ensemble(tracer, heat))
        if "distributed" in groups:
            out.update(distributed(tracer, heat))
        if "serve" in groups:
            out.update(serve(tracer, run_dir))
    return out
