"""Block decomposition, halo exchange and its adjoint (the reverse
accumulate-back) through an in-process :class:`ShardedPlan`."""

import warnings

import numpy as np
import pytest
import sympy as sp

from repro.apps import burgers_problem, heat_problem, wave_problem
from repro.core import adjoint_loops, make_loop_nest
from repro.errors import ValidationError
from repro.runtime import Bindings, ShardedPlan, compile_nests
from repro.runtime.distributed import decompose


def _sharded(arrays, nranks, halo, kernel=None):
    """An in-process ShardedPlan of *kernel* over *arrays*.

    Without a kernel, the plan gets one that zero-fills the first array
    and is never stepped, so data-movement tests run only the scatter,
    exchange, accumulate-back and gather paths.
    """
    if kernel is None:
        name, arr = next(iter(arrays.items()))
        counters = sp.symbols(f"i0:{arr.ndim}", integer=True)
        nest = make_loop_nest(
            lhs=sp.Function(name)(*counters),
            rhs=sp.Integer(0),
            counters=counters,
            bounds={c: (0, size - 1) for c, size in zip(counters, arr.shape)},
        )
        kernel = compile_nests(
            [nest], Bindings(dtype=arr.dtype.type), cache=False
        )
    return ShardedPlan(
        kernel, arrays, nranks=nranks, halo=halo, use_workers=False
    )


def test_decompose_covers_and_balances():
    ranges = decompose(23, 4)
    assert ranges[0][0] == 0 and ranges[-1][1] == 22
    for (a, b), (c, d) in zip(ranges, ranges[1:]):
        assert c == b + 1
    sizes = [b - a + 1 for a, b in ranges]
    assert max(sizes) - min(sizes) <= 1


def test_decompose_more_ranks_than_rows():
    assert len(decompose(3, 10)) == 3


def test_decompose_invalid():
    with pytest.raises(ValueError):
        decompose(10, 0)


def test_scatter_gather_round_trip(rng):
    prob = heat_problem(2)
    N = 20
    arrays = prob.allocate(N, rng=rng)
    kernel = compile_nests([prob.primal], prob.bindings(N))
    with _sharded(arrays, 3, 1, kernel) as plan:
        back = plan.gather()
    for name in arrays:
        np.testing.assert_array_equal(back[name], arrays[name])


@pytest.mark.parametrize("nranks", [1, 2, 3, 5])
def test_distributed_primal_equals_global(rng, nranks):
    prob = wave_problem(2)
    N = 24
    kernel = compile_nests([prob.primal], prob.bindings(N))
    arrays = prob.allocate(N, rng=rng)

    ref = {k: v.copy() for k, v in arrays.items()}
    kernel(ref)

    with _sharded(arrays, nranks, 1, kernel) as plan:
        plan.step(exchange=["u_1", "u_2", "c"])
        out = plan.gather(["u"])
    np.testing.assert_array_equal(out["u"], ref["u"])


@pytest.mark.parametrize("nranks", [2, 3, 4])
def test_distributed_adjoint_equals_global(rng, nranks):
    """Adjoint stencils + reverse halo exchange == global adjoint."""
    prob = heat_problem(2)
    N = 24
    nests = adjoint_loops(prob.primal, prob.adjoint_map)
    kernel = compile_nests(nests, prob.bindings(N))
    base = prob.allocate(N, rng=rng)
    base.update(prob.allocate_adjoints(N, rng=rng))

    ref = {k: v.copy() for k, v in base.items()}
    kernel(ref)

    with _sharded(base, nranks, 1, kernel) as plan:
        # Forward exchange for the values the adjoint reads (u_1, seed
        # u_b); the reverse exchange folds halo adjoint contributions
        # back to their owners.
        plan.step(exchange=["u_1", "u_b"], accumulate=["u_1_b"])
        out = plan.gather(["u_1_b"])
    np.testing.assert_allclose(out["u_1_b"], ref["u_1_b"], rtol=1e-13, atol=1e-14)


def test_distributed_adjoint_burgers_nonlinear(rng):
    prob = burgers_problem(1)
    N = 50
    nests = adjoint_loops(prob.primal, prob.adjoint_map)
    kernel = compile_nests(nests, prob.bindings(N))
    base = prob.allocate(N, rng=rng)
    base.update(prob.allocate_adjoints(N, rng=rng))
    ref = {k: v.copy() for k, v in base.items()}
    kernel(ref)

    with _sharded(base, 4, 1, kernel) as plan:
        plan.step(exchange=["u_1", "u_b"], accumulate=["u_1_b"])
        out = plan.gather(["u_1_b"])
    np.testing.assert_allclose(out["u_1_b"], ref["u_1_b"], rtol=1e-13, atol=1e-14)


def test_mismatched_shapes_rejected(rng):
    with pytest.raises(ValidationError, match="share one shape"):
        _sharded({"a": np.zeros(5), "b": np.zeros(6)}, nranks=2, halo=1)


def test_negative_halo_rejected():
    with pytest.raises(ValidationError, match="halo"):
        _sharded({"x": np.zeros(6)}, nranks=2, halo=-1)


# -- regression tests for the three substrate bugs -------------------------


def test_gather_preserves_float32_round_trip(rng):
    """Regression: ``gather`` used to allocate with ``np.zeros(...)`` and
    no dtype, silently promoting float32 state to float64."""
    arrays = {
        "a": rng.standard_normal((13, 3)).astype(np.float32),
        "b": rng.standard_normal((13, 3)).astype(np.float32),
    }
    with _sharded(arrays, nranks=3, halo=1) as plan:
        back = plan.gather(["a", "b"])
    for name in arrays:
        assert back[name].dtype == np.float32
        np.testing.assert_array_equal(back[name], arrays[name])


def test_halo_wider_than_smallest_slab_rejected():
    """Regression: a halo wider than the smallest owned slab used to make
    the exchange read a neighbour's halo rows as if they were interior.
    Now it is a typed error, at plan construction, naming the offending
    rank."""
    # decompose(9, 5) -> sizes (2, 2, 2, 2, 1): rank 4 owns one row.
    with pytest.raises(ValidationError, match=r"rank 4 of 5"):
        _sharded({"x": np.zeros(9)}, nranks=5, halo=2)
    # The widest legal halo still scatters.
    with _sharded({"x": np.zeros(9)}, nranks=5, halo=1) as plan:
        assert len(plan.slabs) == 5


def test_rank_clamp_is_recorded_and_warned_once():
    """Regression: when ``nranks > extent`` the decomposition silently
    clamped while the plan kept reporting the requested value.  Now
    ``effective_nranks`` records the truth and the clamp warns once."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with _sharded({"x": np.arange(3.0)}, nranks=10, halo=0) as plan:
            back = plan.gather()  # running the plan does not re-warn
            assert plan.nranks == 10
            assert plan.effective_nranks == 3
            assert len(plan.slabs) == 3
    np.testing.assert_array_equal(back["x"], np.arange(3.0))
    clamp = [w for w in caught if "using 3 rank(s)" in str(w.message)]
    assert len(clamp) == 1
    assert issubclass(clamp[0].category, RuntimeWarning)


# -- partition / roundtrip properties -------------------------------------


@pytest.mark.parametrize("extent", [1, 2, 3, 7, 16, 23, 64, 101])
@pytest.mark.parametrize("nranks", [1, 2, 3, 4, 7, 12])
def test_decompose_partition_property(extent, nranks):
    """Ownership ranges exactly partition [0, extent), near-balanced."""
    ranges = decompose(extent, nranks)
    assert len(ranges) == min(nranks, extent)
    covered = [g for lo, hi in ranges for g in range(lo, hi + 1)]
    assert covered == list(range(extent))  # disjoint, ordered, complete
    sizes = [hi - lo + 1 for lo, hi in ranges]
    assert max(sizes) - min(sizes) <= 1


@pytest.mark.parametrize("halo", [0, 1, 2, 3])
@pytest.mark.parametrize("nranks", [1, 2, 3, 5])
def test_scatter_gather_roundtrip_property(rng, halo, nranks):
    """gather(scatter(x)) == x for every halo width and rank count."""
    extent = 21
    arrays = {
        "a": rng.standard_normal((extent, 4)),
        "b": rng.standard_normal((extent, 4)),
    }
    with _sharded(arrays, nranks=nranks, halo=halo) as plan:
        # Owned ranges tile the domain with no gaps or overlaps.
        owned = [
            g for s in plan.slabs for g in range(s.own_lo, s.own_hi + 1)
        ]
        assert owned == list(range(extent))
        back = plan.gather(["a", "b"])
    for name in arrays:
        np.testing.assert_array_equal(back[name], arrays[name])


@pytest.mark.parametrize("nranks", [2, 3, 5])
def test_halo_exchange_matches_global_rows(rng, nranks):
    """After the exchange, every local row equals the global row it
    shadows — interior and halo alike."""
    extent = 19
    arrays = {"x": rng.standard_normal(extent)}
    with _sharded(arrays, nranks=nranks, halo=2) as plan:
        for slab in plan.slabs:  # dirty the halos so the exchange must fix them
            lo = slab.own_lo - slab.slab_lo
            hi = slab.own_hi - slab.slab_lo
            slab.arrays["x"][:lo] = np.nan
            slab.arrays["x"][hi + 1:] = np.nan
        plan.exchange(["x"])
        for slab in plan.slabs:
            local = slab.arrays["x"]
            for k in range(local.shape[0]):
                g = slab.slab_lo + k
                # Halo layers beyond the exchange width stay untouched
                # only at the domain edges, where they do not exist.
                np.testing.assert_array_equal(local[k], arrays["x"][g])


@pytest.mark.parametrize("halo", [1, 2, 3])
def test_primal_identical_for_any_halo_at_least_radius(rng, halo):
    """Halo width is an implementation choice: any width >= the stencil
    radius gives the bitwise-identical global result."""
    prob = wave_problem(2)
    N = 24
    kernel = compile_nests([prob.primal], prob.bindings(N))
    arrays = prob.allocate(N, rng=rng)
    ref = {k: v.copy() for k, v in arrays.items()}
    kernel(ref)
    with _sharded(arrays, 3, halo, kernel) as plan:
        plan.step(exchange=["u_1", "u_2", "c"])
        out = plan.gather(["u"])
    np.testing.assert_array_equal(out["u"], ref["u"])


@pytest.mark.parametrize("nranks", [2, 3, 5])
@pytest.mark.parametrize("halo", [1, 2])
def test_accumulate_back_conserves_mass_and_zeroes_halos(rng, nranks, halo):
    """The adjoint exchange moves halo contributions, never loses them:
    the total over all local storage is unchanged, halos end up zero,
    and the gathered owners hold every contribution."""
    extent = 17
    with _sharded({"g": np.zeros(extent)}, nranks=nranks, halo=halo) as plan:
        slabs = plan.slabs
        rng_local = np.random.default_rng(7)
        for slab in slabs:  # arbitrary adjoint contributions, halos included
            slab.arrays["g"][:] = rng_local.standard_normal(
                slab.arrays["g"].shape
            )
        total_before = sum(float(s.arrays["g"].sum()) for s in slabs)
        plan.accumulate_back(["g"])
        total_after = sum(float(s.arrays["g"].sum()) for s in slabs)
        assert total_after == pytest.approx(total_before, rel=1e-12)
        for slab in slabs:
            lo = slab.own_lo - slab.slab_lo
            hi = slab.own_hi - slab.slab_lo
            assert np.all(slab.arrays["g"][:lo] == 0.0)
            assert np.all(slab.arrays["g"][hi + 1:] == 0.0)
        gathered = plan.gather(["g"])
    assert float(gathered["g"].sum()) == pytest.approx(total_before, rel=1e-12)


@pytest.mark.parametrize("nranks", [2, 4])
def test_accumulate_back_is_the_transpose_of_the_exchange(rng, nranks):
    """Dot-product (adjoint) identity: <F x, y> == <x, F^T y> where F is
    the forward halo exchange and F^T the accumulate-back, both viewed
    as linear maps on the concatenation of all local storage."""
    extent = 15
    halo = 2

    def fresh(seed):
        plan = _sharded({"x": np.zeros(extent)}, nranks=nranks, halo=halo)
        r = np.random.default_rng(seed)
        for slab in plan.slabs:
            slab.arrays["x"][:] = r.standard_normal(slab.arrays["x"].shape)
        return plan

    def flat(plan):
        return np.concatenate([s.arrays["x"] for s in plan.slabs])

    with fresh(1) as xs, fresh(2) as ys:
        x0, y0 = flat(xs), flat(ys)
        xs.exchange(["x"])  # xs <- F x
        ys.accumulate_back(["x"])  # ys <- F^T y
        lhs = float(flat(xs) @ y0)
        rhs = float(x0 @ flat(ys))
    assert lhs == pytest.approx(rhs, rel=1e-12)
