"""Bit-equality and degradation tests for the vectorized planning kernels.

Every kernel in ``repro.netsim.kernels`` must either return a result that
is ``==``-equal to the scalar loop it replaces, or decline (return None /
degrade to the scalar path) — never approximate.  These tests drive the
kernels directly across dtypes, shapes, and load regimes, and exercise
the degradation machinery: REPRO_NO_VECTOR, self-check failure, and the
fallback counters.
"""

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim import kernels
from repro.netsim.bulkarrivals import CrossAggregator
from repro.netsim.fastpath import NO_VECTOR_ENV


@pytest.fixture(autouse=True)
def _fresh_kernels(monkeypatch):
    monkeypatch.delenv(NO_VECTOR_ENV, raising=False)
    kernels._reset_for_tests()
    yield
    kernels._reset_for_tests()


def _random_lindley_case(rng, n, regime):
    """(free_at, times, txs) in a given load regime."""
    times = []
    t = rng.random()
    for _ in range(n):
        t += rng.random() * (0.1 if regime == "busy" else 10.0)
        times.append(t)
    if regime == "idle":
        txs = [rng.random() * 1e-3 for _ in range(n)]
    elif regime == "busy":
        txs = [1.0 + rng.random() for _ in range(n)]
    else:  # mixed
        txs = [rng.choice([1e-4, 0.05, 3.0]) * (1 + rng.random()) for _ in range(n)]
    return rng.random() * 2.0, times, txs


class TestLindley:
    @pytest.mark.parametrize("regime", ["idle", "busy", "mixed"])
    @pytest.mark.parametrize("n", [1, 2, 7, 64, 513])
    def test_matches_scalar_exactly(self, regime, n):
        rng = random.Random(hash((regime, n)) & 0xFFFF)
        for trial in range(10):
            free_at, times, txs = _random_lindley_case(rng, n, regime)
            got = kernels.lindley(free_at, times, txs)
            want = kernels._lindley_scalar(free_at, times, txs)
            assert got == want, f"trial {trial}: kernel != scalar"

    def test_empty(self):
        assert kernels.lindley(0.0, [], []) == []

    def test_exact_time_ties(self):
        times = [1.0, 1.0, 1.0, 2.5, 2.5]
        txs = [0.3, 0.2, 0.1, 0.4, 0.05]
        got = kernels.lindley(0.9, times, txs)
        assert got == kernels._lindley_scalar(0.9, times, txs)

    def test_extreme_magnitudes(self):
        tiny = 5e-324
        times = [tiny, 2 * tiny, 1.0, 1e300]
        txs = [tiny, 1e-17, 1e285, 1.0]
        got = kernels.lindley(tiny, times, txs)
        assert got == kernels._lindley_scalar(tiny, times, txs)

    def test_declines_rather_than_approximates(self):
        # Moderate load, short segments: the kernel may decline (None,
        # a failed proof) but must never return a non-==-equal list.
        rng = random.Random(99)
        for _ in range(50):
            free_at, times, txs = _random_lindley_case(rng, 40, "mixed")
            got = kernels.lindley(free_at, times, txs)
            if got is not None:
                assert got == kernels._lindley_scalar(free_at, times, txs)


class TestLindleySegmented:
    def _schedule(self, rng, t0, t1):
        """Random piecewise schedule with 1-3 boundaries inside [t0, t1]."""
        nb = rng.randrange(1, 4)
        bounds = sorted(t0 + rng.random() * (t1 - t0) for _ in range(nb))
        caps = [rng.choice([2e6, 8e6, 10e6, 16e6]) for _ in range(nb + 1)]
        return bounds, caps

    def _case(self, rng, n, spread):
        t, times, sizes = rng.random(), [], []
        for _ in range(n):
            t += rng.random() * spread
            times.append(t)
            sizes.append(rng.choice([40, 550, 1500]))
        return times, sizes

    def test_matches_scalar_exactly(self):
        import numpy as np

        rng = random.Random(17)
        engaged = 0
        for trial in range(100):
            times, sizes = self._case(rng, 64, spread=2e-3)
            bounds, caps = self._schedule(rng, times[0], times[-1])
            free_at = times[0] - rng.random() * 1e-3
            got = kernels._lindley_segmented_numpy(
                free_at,
                np.asarray(times, dtype=np.float64),
                np.asarray(sizes, dtype=np.int64),
                bounds,
                caps,
            )
            want = kernels._lindley_segmented_scalar(
                free_at, times, sizes, bounds, caps
            )
            if got is not None:
                engaged += 1
                assert got.tolist() == want, f"trial {trial}"
        assert engaged > 0

    def test_arrival_on_boundary_takes_new_rate(self):
        # side="left" partitioning must mirror bisect_right in the
        # capacity lookup: an arrival exactly on a boundary is served at
        # the new rate.
        got = kernels.lindley_segmented(
            0.0, [0.5, 1.0], [1500, 1500], [1.0], [1e6, 1e7]
        )
        want = kernels._lindley_segmented_scalar(
            0.0, [0.5, 1.0], [1500, 1500], [1.0], [1e6, 1e7]
        )
        if got is not None:
            assert got == want
            assert got[1] == 1.0 + 1500 * 8.0 / 1e7

    def test_busy_spill_declines(self):
        # Three 12.5 kB packets at 1 Mb/s take 0.1 s each: the backlog
        # pushes a transmission start past the boundary at 0.15, so the
        # partitioned fold would price it at the wrong rate — it must
        # decline, never approximate.
        before = kernels.kernel_fallbacks.get("segment-spill", 0)
        got = kernels.lindley_segmented(
            0.0, [0.0, 0.01, 0.02], [12500, 12500, 12500], [0.15], [1e6, 1e7]
        )
        assert got is None
        if kernels.enabled():
            assert kernels.kernel_fallbacks.get("segment-spill", 0) == before + 1
        want = kernels._lindley_segmented_scalar(
            0.0, [0.0, 0.01, 0.02], [12500, 12500, 12500], [0.15], [1e6, 1e7]
        )
        # The scalar ground truth prices the third start (0.2) at 10 Mb/s.
        assert want[2] == pytest.approx(0.2 + 12500 * 8.0 / 1e7)

    def test_empty_partitions_and_out_of_range_bounds(self):
        import numpy as np

        times = [1.0, 1.001, 1.002, 1.003]
        sizes = [1500] * 4
        bounds = [0.5, 2.0, 3.0]  # all arrivals in the middle segment
        caps = [1e6, 8e6, 1e7, 2e6]
        got = kernels._lindley_segmented_numpy(
            0.0,
            np.asarray(times, dtype=np.float64),
            np.asarray(sizes, dtype=np.int64),
            bounds,
            caps,
        )
        want = kernels._lindley_segmented_scalar(0.0, times, sizes, bounds, caps)
        if got is not None:
            assert got.tolist() == want

    def test_disabled_returns_none(self, monkeypatch):
        monkeypatch.setenv(NO_VECTOR_ENV, "1")
        kernels._reset_for_tests()
        assert (
            kernels.lindley_segmented(0.0, [1.0], [1500], [2.0], [1e6, 1e7])
            is None
        )


class TestFoldSliceSegmented:
    def _scalar_fold(self, free_at, times, sizes, lo, hi, bounds, caps, keep_after):
        from bisect import bisect_right

        kept, kept_bytes, fold_bytes = [], 0, 0
        for i in range(lo, hi):
            tc, sz = times[i], sizes[i]
            start = free_at if free_at > tc else tc
            cap = caps[bisect_right(bounds, start)]
            free_at = start + sz * 8.0 / cap
            fold_bytes += sz
            if free_at > keep_after:
                kept.append((free_at, sz))
                kept_bytes += sz
        return free_at, kept, kept_bytes, fold_bytes

    def test_saturated_fold_bit_equal(self):
        rng = random.Random(21)
        size, cap = 1000, 1e7
        gap = size * 8.0 / (1.2 * cap)
        t, times, sizes = 0.0, [], []
        for _ in range(512):
            t += rng.random() * 2 * gap
            times.append(t)
            sizes.append(size)
        bounds = [times[150] + 1e-7, times[350] + 1e-7]
        caps = [cap, 2e7, 1.5e7]
        keep_after = times[-1]
        got = kernels.fold_slice_segmented(
            0.0, np.asarray(times), np.asarray(sizes), bounds, caps, keep_after
        )
        want = self._scalar_fold(
            0.0, times, sizes, 0, 512, bounds, caps, keep_after
        )
        if got is not None:
            assert got == want

    def test_disabled_returns_none(self, monkeypatch):
        monkeypatch.setenv(NO_VECTOR_ENV, "1")
        kernels._reset_for_tests()
        got = kernels.fold_slice_segmented(
            0.0, np.array([1.0]), np.array([1000]), [2.0], [1e6, 1e7], 0.0
        )
        assert got is None


class TestPrefixSums:
    def test_prefix_sum_never_declines(self):
        rng = random.Random(7)
        for n in (0, 1, 5, 300):
            deltas = [rng.random() * rng.choice([1e-9, 1.0, 1e9]) for _ in range(n)]
            initial = rng.random()
            assert kernels.prefix_sum(initial, deltas).tolist() == (
                kernels._prefix_sum_scalar(initial, deltas)
            )

    def test_prefix_sum_degrades_when_disabled(self, monkeypatch):
        monkeypatch.setenv(NO_VECTOR_ENV, "1")
        kernels._reset_for_tests()
        assert kernels.prefix_sum(1.0, [0.5, 0.25]).tolist() == [1.0, 1.5, 1.75]
        assert kernels.kernel_fallbacks.get("disabled") == 1

    def test_masked_prefix_sum_int_and_float(self):
        rng = random.Random(3)
        for values in (
            [rng.randrange(1500) for _ in range(64)],
            [rng.random() for _ in range(64)],
        ):
            mask = [rng.random() < 0.4 for _ in range(64)]
            got = kernels.masked_prefix_sum(values, mask, 0)
            want = kernels._masked_prefix_sum_scalar(values, mask, 0)
            assert len(got) == len(want)
            assert all(a == b for a, b in zip(got, want))


class TestMergeParts:
    def test_matches_heap_order_with_ties(self):
        rng = random.Random(11)
        parts_t, parts_s = [], []
        for _ in range(3):
            ts, acc = [], 0.0
            for _ in range(50):
                acc += rng.choice([0.0, 0.1, 0.1, 0.25])  # exact ties across parts
                ts.append(acc)
            parts_t.append(np.asarray(ts))
            parts_s.append(np.asarray([rng.randrange(40, 1500) for _ in ts]))
        got = kernels.merge_parts(parts_t, parts_s)
        mt, ms, pidx = (a.tolist() for a in got)
        # Reference: stable sort of (time, part, index) like a k-way heap.
        entries = [
            (parts_t[k][j], k, j)
            for k in range(3)
            for j in range(len(parts_t[k]))
        ]
        entries.sort(key=lambda e: e[0])
        assert mt == [e[0] for e in entries]
        assert ms == [parts_s[e[1]][e[2]] for e in entries]
        assert pidx == [e[1] for e in entries]
        # The scalar twin (kernels off) merges identically.
        twin = kernels.merge_parts(parts_t, parts_s, vector=False)
        assert [a.tolist() for a in twin] == [mt, ms, pidx]

    def test_single_part_uncopied(self):
        ts, ss = np.array([1.0, 2.0]), np.array([100, 200])
        mt, ms, pidx = kernels.merge_parts([ts], [ss])
        assert mt is ts and ms is ss and pidx is None


def _scalar_fold(free_at, times, sizes, cap, keep_after):
    """Link.sync's infinite-buffer fold, one arrival at a time."""
    kept, kept_bytes, fold_bytes = [], 0, 0
    for tc, sz in zip(times, sizes):
        start = free_at if free_at > tc else tc
        free_at = start + sz * 8.0 / cap
        fold_bytes += sz
        if free_at > keep_after:
            kept.append((free_at, sz))
            kept_bytes += sz
    return free_at, kept, kept_bytes, fold_bytes


def _scalar_plan(free_at, c_times, c_sizes, p_times, p_size, cap, t_end, prop):
    """plan_stream's interleaved infinite-buffer walk (cross first on ties)."""
    dones, exits, eif = [], [], []
    fwd = 0
    ci, cut = 0, len(c_times)
    tx = p_size * 8.0 / cap
    for t in p_times:
        while ci < cut and c_times[ci] <= t:
            sz = c_sizes[ci]
            start = free_at if free_at > c_times[ci] else c_times[ci]
            free_at = start + sz * 8.0 / cap
            if free_at > t_end:
                eif.append((free_at, sz))
            fwd += sz
            ci += 1
        start = free_at if free_at > t else t
        free_at = start + tx
        if free_at > t_end:
            eif.append((free_at, p_size))
        dones.append(free_at)
        exits.append(free_at + prop)
    while ci < cut:
        sz = c_sizes[ci]
        start = free_at if free_at > c_times[ci] else c_times[ci]
        free_at = start + sz * 8.0 / cap
        if free_at > t_end:
            eif.append((free_at, sz))
        fwd += sz
        ci += 1
    return dones, exits, eif, free_at, fwd + p_size * len(p_times)


class TestFoldSlice:
    def _case(self, n, cap, rho):
        rng = random.Random(n)
        size = 1000
        gap = size * 8.0 / (rho * cap)
        t, times, sizes = 0.0, [], []
        for _ in range(n):
            t += rng.random() * 2 * gap
            times.append(t)
            sizes.append(size)
        return np.asarray(times), np.asarray(sizes), cap

    def test_saturated_fold_bit_equal(self):
        times, sizes, cap = self._case(512, 1e7, 1.2)
        keep_after = times[-1]
        got = kernels.fold_slice(0.0, times, sizes, cap, keep_after)
        assert got is not None, "saturated fold must engage"
        assert got == _scalar_fold(
            0.0, times.tolist(), sizes.tolist(), cap, keep_after
        )


_PAPER_SIZES = np.array([40, 550, 1500])
_PAPER_PROBS = np.array([0.4, 0.5, 0.1])


class TestFoldProperty:
    """The folds engage at every load and equal their scalar twins."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        rho=st.floats(0.05, 1.5),
        n=st.integers(1, 400),
        block=st.sampled_from([5, 64, 16384]),
        seed=st.integers(0, 2**32 - 1),
        free_offset=st.floats(-3.0, 3.0),
        tie_frac=st.floats(0.0, 0.3),
    )
    def test_folds_equal_scalar_and_engage(
        self, rho, n, block, seed, free_offset, tie_frac
    ):
        rng = np.random.default_rng(seed)
        cap = 1e7
        sizes = rng.choice(_PAPER_SIZES, size=n, p=_PAPER_PROBS)
        mean_tx = 441 * 8.0 / cap
        gaps = rng.exponential(mean_tx / rho, n)
        gaps[rng.random(n) < tie_frac] = 0.0  # exact-time ties
        times = np.add.accumulate(gaps) + 1.0
        # Transmitter free before or after the first arrival.
        free_at = float(times[0]) + free_offset * mean_tx
        tl, sl = times.tolist(), sizes.tolist()
        txs = sizes * 8.0 / cap
        with mock.patch.object(kernels, "_BLOCK", block):
            got = kernels.lindley(free_at, times, txs)
            assert got == kernels._lindley_scalar(free_at, tl, txs.tolist())

            keep_after = tl[int(rng.integers(n))]
            got = kernels.fold_slice(free_at, times, sizes, cap, keep_after)
            assert got == _scalar_fold(free_at, tl, sl, cap, keep_after)

            # A probe stream merged into the same cross traffic.
            n_probes = int(rng.integers(1, 60))
            span = tl[-1] - tl[0]
            p = sorted((tl[0] + rng.random(n_probes) * span).tolist())
            t_end = p[-1]
            cut = int(times.searchsorted(t_end, side="right"))
            got = kernels.plan_hop(
                free_at, times[:cut], sizes[:cut], p, 300, cap, t_end, 1e-3
            )
            assert got is not None
            assert got == tuple(
                _scalar_plan(free_at, tl[:cut], sl[:cut], p, 300, cap, t_end, 1e-3)
            )
        assert not kernels.kernel_fallbacks.get("short-segments")


class TestPlanHop:
    def test_cross_free_closed_forms(self):
        cap, size, prop = 1e7, 300, 1e-3
        for rate in (0.5e7, 2e7):  # under and over capacity
            gap = size * 8.0 / rate
            p = [i * gap for i in range(kernels.MIN_PROBES)]
            t_end = p[-1]
            got = kernels.plan_hop(0.0, None, None, p, size, cap, t_end, prop)
            assert got is not None
            dones, exits, eif, free_at, fwd = _scalar_plan(
                0.0, [], [], p, size, cap, t_end, prop
            )
            g_dones, g_exits, g_eif, g_free, g_fwd = got
            assert g_dones == dones and g_exits == exits
            assert g_eif == eif and g_free == free_at and g_fwd == fwd  # simlint: disable=SIM003 -- bit-identity contract

    def test_merged_cross_traffic_bit_equal(self):
        rng = random.Random(21)
        cap, size, prop = 1e7, 300, 1e-3
        c_times, c_sizes, t = [], [], 0.0
        for _ in range(400):
            t += rng.random() * 2 * (1500 * 8.0 / (1.1 * cap))
            c_times.append(t)
            c_sizes.append(1500)
        gap = size * 8.0 / 2e6
        p = [i * gap for i in range(200)]
        t_end = p[-1]
        cut = sum(1 for tc in c_times if tc <= t_end)
        got = kernels.plan_hop(
            0.0, np.asarray(c_times[:cut]), np.asarray(c_sizes[:cut]),
            p, size, cap, t_end, prop,
        )
        assert got is not None
        want = _scalar_plan(
            0.0, c_times[:cut], c_sizes[:cut], p, size, cap, t_end, prop
        )
        g_dones, g_exits, g_eif, g_free, g_fwd = got
        assert g_dones == want[0] and g_exits == want[1]
        assert g_free == want[3] and g_fwd == want[4]

    def test_unsorted_probes_decline(self):
        p = [0.0, 2.0, 1.0] * 100
        got = kernels.plan_hop(
            0.0, np.array([0.5]), np.array([1500]), p, 1500, 1e6, 2.0, 1e-3
        )
        assert got is None
        assert kernels.kernel_fallbacks.get("unsorted-probes", 0) >= 1


class TestMaskedPending:
    def test_identity_semantics(self):
        # Entries belong to a source by its feed index in the owner array.
        owner = np.array([0, 1, 0, 0, 1, 0])
        sizes = np.array([10, 20, 30, 40, 50, 60])
        for vector in (None, False):
            assert kernels.masked_pending(owner, sizes, 0, vector) == (4, 140)
            assert kernels.masked_pending(owner[2:5], sizes[2:5], 1, vector) == (1, 50)


class TestDegradation:
    def test_no_vector_env_disables(self, monkeypatch):
        monkeypatch.setenv(NO_VECTOR_ENV, "1")
        kernels._reset_for_tests()
        assert not kernels.enabled()
        assert kernels.lindley(0.0, [1.0], [0.5]) is None
        assert kernels.fold_slice(0.0, np.array([1.0]), np.array([100]), 1e7, 0.0) is None
        assert kernels.kernel_fallbacks.get("disabled") == 1  # noted once

    def test_only_value_one_opts_out(self, monkeypatch):
        from repro.netsim.fastpath import NO_FAST_ENV, resolve_fast, resolve_vector

        monkeypatch.setenv(NO_FAST_ENV, "0")
        monkeypatch.setenv(NO_VECTOR_ENV, "0")
        assert resolve_fast() and resolve_vector()
        kernels._reset_for_tests()
        assert kernels.enabled()
        monkeypatch.setenv(NO_FAST_ENV, "1")
        monkeypatch.setenv(NO_VECTOR_ENV, "1")
        assert not resolve_fast() and not resolve_vector()
        kernels._reset_for_tests()
        assert not kernels.enabled()
        # An explicit argument still beats the environment.
        assert resolve_fast(True) and resolve_vector(True)

    def test_vector_flag_resolved_per_simulator(self, monkeypatch):
        from repro.netsim import LinkSpec, Simulator, attach_cross_traffic, build_path

        def fold_once(sim):
            """One long sync of bulk cross traffic; returns link stats."""
            net = build_path(sim, [LinkSpec(10e6, name="hop")])
            link = net.forward_links[0]
            attach_cross_traffic(
                sim, net, link, 6e6, np.random.default_rng(3), n_sources=4
            )
            sim.run(until=3.0)
            before = kernels.kernel_calls.get("lindley", 0)
            stats = link.stats.snapshot()  # folds ~5000 arrivals at once
            return stats, kernels.kernel_calls.get("lindley", 0) - before

        monkeypatch.setenv(NO_VECTOR_ENV, "1")
        scalar_sim = Simulator()
        monkeypatch.delenv(NO_VECTOR_ENV)
        vector_sim = Simulator()
        # The flag was resolved at construction: later flips do not matter.
        monkeypatch.setenv(NO_VECTOR_ENV, "1")
        vec_stats, vec_folds = fold_once(vector_sim)
        monkeypatch.delenv(NO_VECTOR_ENV)
        sca_stats, sca_folds = fold_once(scalar_sim)
        assert (vector_sim.vector, scalar_sim.vector) == (True, False)
        assert vec_folds == 1 and sca_folds == 0
        assert vec_stats == sca_stats

    def test_self_check_failure_disables_permanently(self, monkeypatch):
        monkeypatch.setattr(kernels, "_self_check", lambda: False)
        assert not kernels.enabled()
        assert kernels.kernel_fallbacks.get("self-check") == 1
        # Sticky: the check is not re-run per call.
        assert not kernels.enabled()
        assert kernels.kernel_fallbacks.get("self-check") == 1

    def test_self_check_exception_never_raises(self, monkeypatch):
        def boom():
            raise RuntimeError("broken numpy")

        monkeypatch.setattr(kernels, "_self_check", boom)
        assert not kernels.enabled()
        assert kernels.kernel_fallbacks.get("self-check") == 1

    def test_numpy_missing_disables(self, monkeypatch):
        monkeypatch.setattr(kernels, "np", None)
        assert not kernels.enabled()
        assert kernels.kernel_fallbacks.get("numpy-missing") == 1

    def test_self_check_passes_for_real(self):
        assert kernels._self_check()

    def test_counters_and_publish(self):
        from repro.obs.metrics import MetricsRegistry

        kernels.prefix_sum(0.0, [1.0, 2.0])
        assert kernels.kernel_calls.get("prefix_sum") == 1
        m = MetricsRegistry()
        kernels.publish(m)
        assert ("repro_kernel_calls_total", (("kernel", "prefix_sum"),)) in m._metrics

    def test_tracer_publishes_kernel_counters(self):
        from repro.netsim.engine import Simulator
        from repro.obs import Tracer

        kernels.prefix_sum(0.0, [1.0])
        tracer = Tracer()
        tracer.attach(Simulator())
        m = tracer.collect_metrics()
        assert any(k[0] == "repro_kernel_calls_total" for k in m._metrics)


class _StubSource:
    """Stands in for CrossTrafficSource in a feed (records hand-backs)."""

    def _resume_per_packet(self, times, sizes, exhausted):
        self.resumed = (times, sizes, exhausted)


def _add_feeds(agg, parts):
    """Finished feeds holding ``parts``, appended without a merge."""
    from repro.netsim.bulkarrivals import _Feed

    for ts, ss in parts:
        feed = _Feed(_StubSource(), order=len(agg.feeds))
        feed.times = np.asarray(ts, dtype=np.float64)
        feed.sizes = np.asarray(ss, dtype=np.int64)
        feed.done = True  # finished source: the whole buffer is merge-safe
        feed.source._feed = feed
        agg.feeds.append(feed)


def _make_agg(parts, vector=True):
    """Aggregator with finished feeds holding ``parts``; not yet merged."""
    from repro.netsim.engine import Simulator

    link = type("_L", (), {"_agenda": None, "_agg": None})()
    sim = Simulator()
    sim.vector = vector
    agg = CrossAggregator(sim, link)
    _add_feeds(agg, parts)
    return agg


def _two_parts(n=300, seed=5, start=0.0):
    rng = random.Random(seed)
    parts = []
    for k in range(2):
        ts, acc = [], start
        for _ in range(n):
            acc += rng.choice([0.5, 1.0, rng.random()])  # exact cross-part ties
            ts.append(acc)
        parts.append((ts, [40 + 500 * k + rng.randrange(3) for _ in range(n)]))
    return parts


def _heap_order(parts, first_order=0):
    """(time, size, owner) in (time, feed order, index) order."""
    entries = [
        (t, k + first_order, j, s)
        for k, (ts, ss) in enumerate(parts)
        for j, (t, s) in enumerate(zip(ts, ss))
    ]
    entries.sort()
    return [(t, s, k) for t, k, _j, s in entries]


def _queue(agg, lo=0):
    return list(zip(
        agg.times[lo:].tolist(), agg.sizes[lo:].tolist(), agg.owner[lo:].tolist()
    ))


class TestAggregatorMirror:
    """The CrossAggregator's array queue holds exactly the merged
    arrivals, in heap order, through merges, compaction, unmerge and
    release."""

    def test_arrays_cover_merged_tail(self):
        parts = _two_parts()
        agg = _make_agg(parts)
        agg._merge()
        assert _queue(agg) == _heap_order(parts)
        n = len(agg.times)
        t_arr, s_arr = agg.arrays(0, n)
        assert t_arr.dtype == np.float64 and s_arr.dtype == np.int64
        assert t_arr.tolist() == agg.times.tolist()

    def test_arrays_cover_tail_merged_with_vector_off(self):
        parts = _two_parts()
        on, off = _make_agg(parts), _make_agg(parts, vector=False)
        on._merge()
        off._merge()
        assert _queue(off) == _queue(on) == _heap_order(parts)

    def test_arrays_after_compact(self, monkeypatch):
        import repro.netsim.bulkarrivals as ba

        monkeypatch.setattr(ba, "_COMPACT_THRESHOLD", 100)
        parts = _two_parts()
        agg = _make_agg(parts)
        agg._merge()
        n = len(agg.times)
        agg.idx = n // 3
        agg.compact()
        assert agg.idx == 0  # trimmed
        assert _queue(agg) == _heap_order(parts)[n // 3:]

    def test_compaction_across_merge(self, monkeypatch):
        import repro.netsim.bulkarrivals as ba

        monkeypatch.setattr(ba, "_COMPACT_THRESHOLD", 100)
        first, second = _two_parts(n=100), _two_parts(n=5000, seed=6, start=1e3)
        agg = _make_agg(first)
        agg._merge()
        n0 = len(agg.times)
        _add_feeds(agg, second)
        agg._merge()  # appends, growing the buffers past their capacity
        want = _heap_order(first) + _heap_order(second, first_order=2)
        assert _queue(agg) == want
        agg.idx = n0 + 7  # consumed across the merge boundary
        agg.compact()
        assert agg.idx == 0
        assert _queue(agg) == want[n0 + 7:]

    def test_unmerge_and_release_hand_back_arrivals(self):
        parts = _two_parts()
        agg = _make_agg(parts)
        agg._merge()
        consumed = 123
        agg.idx = consumed
        merged = _heap_order(parts)
        pending = [
            [(t, s) for t, s, k in merged[consumed:] if k == order]
            for order in range(2)
        ]
        agg._unmerge()
        assert len(agg.times) == 0 and agg.idx == 0
        for feed, want in zip(agg.feeds, pending):
            assert list(zip(feed.times.tolist(), feed.sizes.tolist())) == want
        agg._merge()
        agg.idx = 50
        feeds = list(agg.feeds)
        agg.release()
        assert agg.feeds == [] and len(agg.times) == 0
        for feed, want in zip(feeds, pending):
            left = [e for e in merged[consumed:][50:] if e[2] == feed.order]
            times, sizes, exhausted = feed.source.resumed
            assert list(zip(times, sizes)) == [(t, s) for t, s, _k in left]
            assert exhausted and isinstance(times, list)

    def test_pending_counts_match_scalar(self):
        parts = _two_parts()
        agg = _make_agg(parts)
        agg._merge()
        agg.idx = 77
        for order in range(2):
            want = [s for _t, s, k in _queue(agg, agg.idx) if k == order]
            for vector in (True, False):
                got = kernels.masked_pending(
                    agg.owner[agg.idx:], agg.sizes[agg.idx:], order, vector
                )
                assert got == (len(want), sum(want))
