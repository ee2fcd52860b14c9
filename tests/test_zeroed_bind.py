"""``bind(arrays, zeroed=...)``: targets that read as zero every run.

The contract: a binding with ``zeroed=T`` produces, bit for bit, what
filling ``T`` with zeros and then running a plain binding produces, on
every backend and configuration — whatever the targets held before the
run (the tests prefill them with NaN).  On the serial native path a
target the kernel only accumulates into, never reads, and covers with
disjoint write boxes is written in *store form* (``t = 0 + rhs`` in C)
and only the complement of its write box is filled; everything else is
a full fill.  The store form must keep IEEE signed zeros: ``0 + -0.0``
is ``+0.0``, so a naive ``t = rhs`` store would be caught here.

Also covered: the fused-source memo (repeat binds skip SymPy), the
byte-identity of source emitted without ``zeroed``, and the fault
contract (a failed store-form build degrades to fill plus accumulate).
"""

import stat
import warnings

import numpy as np
import pytest
import sympy as sp

from repro.apps import (
    advection_problem,
    anisotropic_problem,
    burgers_problem,
    heat_problem,
    wave_problem,
)
from repro.codegen import native_c
from repro.core import adjoint_loops, make_loop_nest
from repro.runtime import (
    Bindings,
    EnsemblePlan,
    clear_kernel_cache,
    compile_nests,
    faults,
    native_available,
    native_toolchain,
    stack_arrays,
)
from repro.runtime import native as native_mod

needs_cc = pytest.mark.skipif(
    not native_available(), reason="no C toolchain on this machine"
)

PROBLEMS = {
    "heat2d": (lambda: heat_problem(2), 12),
    "wave2d": (lambda: wave_problem(2), 10),
    "burgers2d": (lambda: burgers_problem(2), 12),
    "anisotropic": (anisotropic_problem, 10),
    "advection1": (lambda: advection_problem(1), 16),
}

# (label, plan options).  native_threads=None follows the
# REPRO_NATIVE_THREADS environment (1 when unset), so the thread-matrix
# CI job runs these cases at widths 1, 2 and 4.
CONFIGS = [("python", {})]
if native_available():
    CONFIGS += [
        (f"native-{mode}-{label}", {
            "backend": "native", "fusion": fusion, "native_threads": nt,
        })
        for mode, fusion in (("stmt", "off"), ("fused", "auto"))
        for label, nt in (("env", None), ("nt2", 2))
    ]


def _targets(kernel) -> list[str]:
    return sorted(
        {st.target.name for region in kernel.regions for st in region.statements}
    )


def _kernel(prob, n, dtype, adjoint):
    nests = (
        list(adjoint_loops(prob.primal, prob.adjoint_map))
        if adjoint
        else [prob.primal]
    )
    suffix = "_b" if adjoint else ""
    return compile_nests(
        nests, prob.bindings(n, dtype=dtype), name=f"{prob.name}{suffix}"
    )


def _assert_zeroed_equivalent(kernel, arrays, runs=2, **plan_kwargs):
    """Fill-then-run vs ``zeroed=`` over NaN-prefilled targets, bitwise."""
    targets = _targets(kernel)
    ref = {k: v.copy() for k, v in arrays.items()}
    got = {k: v.copy() for k, v in arrays.items()}
    plan = kernel.plan(**plan_kwargs)
    try:
        plain = plan.bind(ref)
        zeroed = plan.bind(got, zeroed=targets)
        for _ in range(runs):
            for name in targets:
                ref[name].fill(0)
                got[name].fill(np.nan)
            plain.run()
            zeroed.run()
            for name in arrays:
                assert got[name].tobytes() == ref[name].tobytes(), name
        return zeroed
    finally:
        plan.close()


@pytest.mark.parametrize("config", [c[0] for c in CONFIGS])
@pytest.mark.parametrize("adjoint", [False, True], ids=["primal", "adjoint"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
@pytest.mark.parametrize("label", sorted(PROBLEMS))
def test_zeroed_bind_bitwise_equals_fill_then_run(label, dtype, adjoint, config):
    factory, n = PROBLEMS[label]
    prob = factory()
    kernel = _kernel(prob, n, dtype, adjoint)
    arrays = prob.allocate_state(n, seed=3, dtype=dtype)
    bound = _assert_zeroed_equivalent(kernel, arrays, **dict(CONFIGS)[config])
    if config == "python":
        assert bound.store_form_targets == ()
    elif not adjoint:
        # Every primal writes its output once per point with '+='.
        assert bound.store_form_targets == tuple(_targets(kernel))


@needs_cc
def test_store_form_serves_fused_adjoint_groups():
    """The reverse kernels fuse statements writing store-form targets."""
    prob = wave_problem(2)
    kernel = _kernel(prob, 10, np.float64, adjoint=True)
    arrays = prob.allocate_state(10, seed=1)
    bound = _assert_zeroed_equivalent(
        kernel, arrays, backend="native", fusion="auto", native_threads=1
    )
    assert bound.fused_group_count > 0
    assert bound.store_form_targets  # c_b, u_2_b: disjoint region boxes


@pytest.mark.parametrize(
    "options",
    [
        {"num_threads": 2},
        {"tile_shape": (4, 4)},
        {"check": "nan"},
    ],
    ids=["threaded", "tiled", "check-nan"],
)
@pytest.mark.parametrize("backend", ["python", "native"])
def test_zeroed_bind_other_disciplines(backend, options):
    if backend == "native" and not native_available():
        pytest.skip("no C toolchain on this machine")
    prob = wave_problem(2)
    for adjoint in (False, True):
        kernel = _kernel(prob, 10, np.float64, adjoint)
        arrays = prob.allocate_state(10, seed=2)
        bound = _assert_zeroed_equivalent(
            kernel, arrays, backend=backend, **options
        )
        if backend == "python" or "tile_shape" not in options:
            # Python threads, the watchdog and the python backend all
            # take the full fill.
            assert bound.store_form_targets == ()


@needs_cc
def test_store_form_binds_plans_with_many_tiles():
    """Thousands of disjoint tile boxes still qualify for the store
    form; the disjointness check is linear in the covered volume."""
    prob = wave_problem(2)
    n = 128
    kernel = _kernel(prob, n, np.float64, adjoint=False)
    arrays = prob.allocate_state(n, seed=4)
    bound = _assert_zeroed_equivalent(
        kernel, arrays, runs=1, backend="native", tile_shape=(2, 2),
        native_threads=1,
    )
    assert len(bound.plan.region_plans[0].tasks[0]) > 3000
    assert bound.store_form_targets == tuple(_targets(kernel))


def _negcopy_kernel(dtype):
    """``u(i) += -1.0*v(i)`` and ``w(i) += -2.0*v(i)``: with ``v = 0``
    the right-hand sides are ``-0.0``; equal boxes, so the fused
    backend interleaves both statements in one loop."""
    i, n = sp.Symbol("i", integer=True), sp.Symbol("n", integer=True)
    u, v, w = sp.Function("u"), sp.Function("v"), sp.Function("w")
    nests = [
        make_loop_nest(
            lhs=lhs(i), rhs=coef * v(i), counters=[i],
            bounds={i: [1, n - 2]}, op="+=", name=f"neg{k}",
        )
        for k, (lhs, coef) in enumerate(((u, -1.0), (w, -2.0)))
    ]
    return compile_nests(
        nests, Bindings(sizes={n: 16}, params={}, dtype=dtype), name="negzero"
    )


@pytest.mark.parametrize("config", [c[0] for c in CONFIGS])
@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
def test_store_form_keeps_signed_zero_semantics(dtype, config):
    kernel = _negcopy_kernel(dtype)
    v = np.zeros(17, dtype=dtype)
    arrays = {"u": np.zeros(17, dtype), "w": np.zeros(17, dtype), "v": v}
    # The right-hand side is -0.0: a bare `t = rhs` store would keep it.
    assert np.signbit(dtype(-1.0) * v).all()
    _assert_zeroed_equivalent(kernel, arrays, **dict(CONFIGS)[config])
    got = {k: a.copy() for k, a in arrays.items()}
    for name in ("u", "w"):
        got[name].fill(np.nan)
    plan = kernel.plan(**dict(CONFIGS)[config])
    bound = plan.bind(got, zeroed=("u", "w"))
    bound.run()
    plan.close()
    for name in ("u", "w"):
        assert not np.signbit(got[name]).any(), name  # 0 + -0.0 == +0.0
        assert (got[name] == 0).all(), name
    if config.startswith("native"):
        assert bound.store_form_targets == ("u", "w")
        if "fused" in config:
            assert bound.fused_group_count == 1


@pytest.mark.parametrize("backend", ["python", "native"])
def test_ensemble_zeroed_equals_fill_then_run(backend):
    if backend == "native" and not native_available():
        pytest.skip("no C toolchain on this machine")
    prob = wave_problem(1)
    for adjoint in (False, True):
        kernel = _kernel(prob, 16, np.float64, adjoint)
        targets = _targets(kernel)
        batched = stack_arrays(
            [prob.allocate_state(16, seed=m) for m in range(3)]
        )
        ref = {k: v.copy() for k, v in batched.items()}
        got = {k: v.copy() for k, v in batched.items()}
        plan = kernel.plan(backend=backend)
        with EnsemblePlan(plan, ref) as plain, EnsemblePlan(
            plan, got, zeroed=targets
        ) as zeroed:
            for _ in range(2):
                for name in targets:
                    ref[name].fill(0)
                    got[name].fill(np.nan)
                plain.run()
                zeroed.run()
                for name in batched:
                    assert got[name].tobytes() == ref[name].tobytes(), name


def test_zeroed_names_must_be_kernel_targets():
    prob = heat_problem(1)
    kernel = _kernel(prob, 12, np.float64, adjoint=False)
    arrays = prob.allocate_state(12, seed=0)
    with pytest.raises(ValueError, match="not targets"):
        kernel.plan().bind(arrays, zeroed=("u_1",))
    batched = stack_arrays([arrays, arrays])
    with pytest.raises(ValueError, match="not targets"):
        EnsemblePlan(kernel.plan(), batched, zeroed=("nosuch",))


# -- the fused-source memo -------------------------------------------------------


@needs_cc
def test_repeat_fused_bind_skips_codegen(monkeypatch):
    prob = wave_problem(2)
    kernel = _kernel(prob, 10, np.float64, adjoint=True)
    plan = kernel.plan(backend="native", fusion="auto", native_threads=1)
    first = plan.bind(prob.allocate_state(10, seed=0))
    assert first.fused_group_count > 0

    calls = []
    emit = native_c._emit_fused_source

    def counting(*args, **kwargs):
        calls.append(1)
        return emit(*args, **kwargs)

    monkeypatch.setattr(native_c, "_emit_fused_source", counting)
    again = plan.bind(prob.allocate_state(10, seed=1))
    assert again.fused_group_count == first.fused_group_count
    assert calls == []  # same geometry: no SymPy CSE or printing

    clear_kernel_cache()
    assert len(native_c._fused_memo) == 0
    plan.bind(prob.allocate_state(10, seed=2))
    assert calls  # emptied memo: the next bind regenerates


@needs_cc
def test_fused_source_memo_is_bounded(monkeypatch):
    monkeypatch.setattr(native_c, "_FUSED_MEMO_SIZE", 2)
    clear_kernel_cache()
    prob = heat_problem(2)
    for n in (8, 10, 12):  # three geometries, three keys
        kernel = _kernel(prob, n, np.float64, adjoint=True)
        plan = kernel.plan(backend="native", fusion="auto", native_threads=1)
        assert plan.bind(prob.allocate_state(n, seed=0)).fused_group_count
        assert len(native_c._fused_memo) <= 2
    clear_kernel_cache()


# -- source identity ----------------------------------------------------------------


def _store_rewrites_only(plain: str, zeroed: str, real: str) -> bool:
    """True when *zeroed* is *plain* with accumulating stores rewritten
    as ``t = ((real)0) + (rhs)`` and one header comment added."""
    lines = [
        line for line in zeroed.splitlines()
        if not line.startswith("/* store form")
    ]
    old = plain.splitlines()
    if len(lines) != len(old):
        return False
    for a, b in zip(old, lines):
        if a == b:
            continue
        lhs, rhs = a.split(" += ", 1)
        if b != f"{lhs} = (({real})0) + ({rhs[:-1]});":
            return False
    return True


@pytest.mark.parametrize("nthreads", [1, 2])
@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
def test_zeroed_source_rewrites_only_the_requested_stores(dtype, nthreads):
    real = "double" if dtype is np.float64 else "float"
    for prob, n in ((wave_problem(2), 10), (anisotropic_problem(), 10)):
        for adjoint in (False, True):
            kernel = _kernel(prob, n, dtype, adjoint)
            targets = frozenset(_targets(kernel))
            plain, manifest = native_c.generate_native_source(kernel, nthreads)
            assert "0) + (" not in plain
            assert native_c.generate_native_source(
                kernel, nthreads, frozenset()
            ) == (plain, manifest)
            zeroed, zmanifest = native_c.generate_native_source(
                kernel, nthreads, targets
            )
            assert zmanifest == manifest
            assert zeroed != plain
            assert _store_rewrites_only(plain, zeroed, real)


@needs_cc
def test_bind_without_zeroed_builds_the_plain_source(monkeypatch):
    """Unrequested targets never reach the store-form emitter."""
    built = []
    real_build = native_mod._build_and_load

    def recording(source, cc, *args):
        built.append(source)
        return real_build(source, cc, *args)

    monkeypatch.setattr(native_mod, "_build_and_load", recording)
    prob = wave_problem(2)
    kernel = compile_nests(
        list(adjoint_loops(prob.primal, prob.adjoint_map)),
        prob.bindings(10), cache=False,
    )
    bound = kernel.plan(backend="native", fusion="auto", native_threads=1).bind(
        prob.allocate_state(10, seed=0)
    )
    assert bound.fused_group_count > 0
    assert built and built[0] == native_c.generate_native_source(kernel)[0]
    assert not any("store form" in src for src in built)


# -- fault contract ------------------------------------------------------------------


def _store_warnings(log) -> list[str]:
    return [str(w.message) for w in log if "store-form" in str(w.message)]


def _fresh_heat_kernel():
    prob = heat_problem(2)
    kernel = compile_nests([prob.primal], prob.bindings(12), cache=False)
    return prob, kernel


@needs_cc
def test_failed_store_build_fault_degrades_to_full_fill(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    native_mod._reset_warnings()
    prob, kernel = _fresh_heat_kernel()
    arrays = prob.allocate_state(12, seed=0)
    plan = kernel.plan(backend="native", native_threads=1)
    plan.bind(dict(arrays))  # the plain library is built and cached
    with warnings.catch_warnings(record=True) as log:
        warnings.simplefilter("always")
        with faults.inject("native.cache.write") as inj:
            bound = _assert_zeroed_equivalent(
                kernel, arrays, backend="native", native_threads=1
            )
        assert inj.fired("native.cache.write") == 1
        again = _assert_zeroed_equivalent(
            kernel, arrays, backend="native", native_threads=1
        )
    assert len(_store_warnings(log)) == 1  # warns once
    for b in (bound, again):
        assert b.store_form_targets == ()
        assert b.native_statement_count == b.statement_count  # still native


@needs_cc
def test_failed_store_build_stub_compiler_degrades(tmp_path, monkeypatch):
    """A compiler that refuses exactly the store-form sources."""
    real_cc = native_toolchain()
    stub = tmp_path / "stub-cc"
    stub.write_text(
        "#!/bin/sh\n"
        'for a in "$@"; do case "$a" in *.c) src="$a";; esac; done\n'
        'if [ -n "$src" ] && grep -q "store form" "$src"; then\n'
        '  echo "stub: store form refused" >&2; exit 1\n'
        "fi\n"
        f'exec "{real_cc}" "$@"\n'
    )
    stub.chmod(stub.stat().st_mode | stat.S_IXUSR)
    monkeypatch.setenv("REPRO_CC", str(stub))
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    native_mod._reset_warnings()
    prob, kernel = _fresh_heat_kernel()
    arrays = prob.allocate_state(12, seed=0)
    with warnings.catch_warnings(record=True) as log:
        warnings.simplefilter("always")
        for _ in range(2):
            bound = _assert_zeroed_equivalent(
                kernel, arrays, backend="native", native_threads=1
            )
            assert bound.store_form_targets == ()
            assert bound.native_statement_count == bound.statement_count
    (message,) = _store_warnings(log)  # warns once
    assert "store form refused" in message  # the stub's diagnostics
