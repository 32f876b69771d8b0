"""Bit-exact vectorized planning kernels.

The SIM010 classifier (``docs/linting.md``) labels three recursion shapes
in the substrate's hot loops VECTOR-SAFE: the *prefix sum* (bulk arrival
clocks), the *Lindley* fold ``f_i = max(t_i, f_{i-1}) + tx_i`` (FIFO
transmitter state), and the *masked prefix sum* (per-owner byte
accounting over a merged queue).  This module implements those shapes on
NumPy arrays under one non-negotiable contract: **every result is
``==``-equal to the scalar loop it replaces**, element for element.

How the Lindley fold stays exact
--------------------------------
``np.add.accumulate`` rounds left-to-right, one addition per element, so
a seeded accumulate reproduces a scalar running sum bit-for-bit.  The
classic cumsum/max-accumulate Lindley transformation does *not* have
that property (FP addition is non-associative), so the kernel never uses
it for output.  Instead it exploits the recursion's structure:

* an element that finds the server idle completes at ``t_i + tx_i`` —
  one vector add computes that value for every element at once;
* an element that finds the server busy completes at ``f_{i-1} + tx_i``
  — the same single addition the scalar loop performs, but it needs its
  predecessor first.  Grouping the busy elements by their *depth* (their
  position inside their busy period) makes every element of one depth
  independent of the others, so one vector add per depth finishes them
  all: the depth-ordered segmented scan.  Busy periods longer than
  :data:`_DEPTH` finish with one seeded ``np.add.accumulate`` each.

Which elements are busy comes from the classic transformation's
approximate completion times, which locate idle restarts to within FP
noise; a vectorized induction proof then checks every element against
``max(t_i, f_{i-1}) + tx_i`` under the scalar rounding, so a mis-guessed
restart (possible only on an FP near-tie) can never leak — the kernel
declines and the call site runs its scalar loop.  The scan engages at
every load: an idle link is one add plus the proof, a saturated one the
all-busy closed form (one seeded chain).  Folds run in blocks of
:data:`_BLOCK` arrivals carrying the transmitter state from one block to
the next, so the scan's temporaries stay bounded however long a sync is.

Self-check and degradation
--------------------------
The first kernel call runs a representative-case self-check comparing
every vector path against the in-module scalar references with ``==``.
Any mismatch — or numpy failing to import — permanently disables the
kernels for the process and bumps ``repro_kernel_fallback_total`` with
the reason; call sites silently keep their scalar loops, and nothing is
ever raised.  ``REPRO_NO_VECTOR`` (resolved once per
:class:`~repro.netsim.engine.Simulator` through
:func:`repro.netsim.fastpath.resolve_vector`, CLI flag ``--no-vector``;
call sites pass the simulator's flag as ``vector=``) forces the same
fallback for A/B timing.  ``Simulator(sanitize=True)`` additionally
shadow-verifies planned streams end to end, so a kernel divergence that
somehow escaped the self-check is still caught at runtime.

Selection is observable: ``kernel_calls`` / ``kernel_fallbacks`` are
process-wide counters, published into every tracer's registry as
``repro_kernel_calls_total{kernel}`` and
``repro_kernel_fallback_total{reason}`` (docs/observability.md).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Optional, Sequence

from .fastpath import resolve_vector

__all__ = [
    "MIN_BATCH",
    "KERNELS",
    "KERNEL_FALLBACK_REASONS",
    "ONE_SHOT_REASONS",
    "enabled",
    "lindley",
    "lindley_segmented",
    "prefix_sum",
    "masked_prefix_sum",
    "merge_parts",
    "fold_slice",
    "fold_slice_segmented",
    "plan_hop",
    "masked_pending",
    "kernel_calls",
    "kernel_fallbacks",
    "counts",
    "publish",
]

try:  # pragma: no cover - numpy is present in the reference environment
    import numpy as np
except Exception:  # pragma: no cover - exercised via _force_disable in tests
    np = None

#: Below this many elements a call site keeps its scalar loop outright —
#: the scan's fixed cost (a few dozen numpy dispatches) would exceed
#: what it saves.  Crossover measured against the call sites' scalar
#: loops over ``.tolist()`` slices (docs/performance.md).
MIN_BATCH = 1024

#: Floor for the cross-free :func:`plan_hop` case.  A pure probe stream
#: is paced at a constant rate with a constant packet size, so its fold
#: collapses to one of the two closed forms (all-idle when R ≤ C,
#: all-busy when R > C) — a handful of vector passes regardless of load,
#: which beats the scalar walk from far fewer elements than the general
#: scan does.  The competition is ``Link._advance``'s scalar loop on a
#: hop with no cross arrival due (a bare Lindley chain), which the closed
#: forms only outrun once the fixed ~12 µs of numpy dispatches amortizes
#: — measured crossover ≈220 probes on the reference host.
MIN_PROBES = 256

#: Busy-period depths the segmented scan resolves with one vector add
#: each; deeper elements finish with a seeded accumulate per busy period.
_DEPTH = 32

#: Arrivals per scan block (the transmitter state carries across).
_BLOCK = 16384

#: Every kernel name the selection counter may carry, for declared-but-
#: zero metric export (dashboards see stable series before the first
#: increment; see docs/observability.md).
KERNELS: tuple[str, ...] = (
    "lindley",
    "lindley_segmented",
    "prefix_sum",
    "masked_prefix_sum",
    "merge",
)

#: Every decline reason the fallback counter may carry, same purpose.
#: ``short-segments`` is kept declared for dashboards and the benchmark's
#: per-layer list but no longer increments: the scan engages at any load.
KERNEL_FALLBACK_REASONS: tuple[str, ...] = (
    "disabled",
    "numpy-missing",
    "self-check",
    "short-segments",
    "verify-failed",
    "unsorted-probes",
    "segment-spill",
)

#: Reasons noted at most once per process (availability facts, not
#: per-call declines).  Cross-process merges fold these by max — summing
#: would make the total depend on how tasks were packed onto workers.
ONE_SHOT_REASONS: frozenset = frozenset(
    {"disabled", "numpy-missing", "self-check"}
)

#: Successful kernel selections, by kernel name.
kernel_calls: dict[str, int] = {}

#: Degradation events, by reason ("disabled", "numpy-missing",
#: "self-check", "verify-failed", "unsorted-probes", "segment-spill").
#: One increment per *event* for the permanent reasons, per declined
#: call for the others; never per element.
kernel_fallbacks: dict[str, int] = {}

# Readiness: None = not yet self-checked, True/False afterwards.
_ready: Optional[bool] = None
_noted_disabled = False


def _count(kernel: str) -> None:
    kernel_calls[kernel] = kernel_calls.get(kernel, 0) + 1


def _note_fallback(reason: str) -> None:
    kernel_fallbacks[reason] = kernel_fallbacks.get(reason, 0) + 1


def counts() -> tuple[dict[str, int], dict[str, int]]:
    """Snapshot of ``(kernel_calls, kernel_fallbacks)`` as plain dicts.

    Used by sweep workers to take a *baseline* before running a task, so
    the task's published counts are deltas rather than whatever the
    (possibly reused, possibly forked) worker process accumulated before.
    """
    return dict(kernel_calls), dict(kernel_fallbacks)


def publish(registry, base=None, merged=None) -> None:
    """Fold the process-wide selection counters into a metrics registry.

    Values are *set*, not accumulated, so repeated collection is
    idempotent (the same convention ``Tracer.collect_metrics`` uses for
    the cumulative link counters).  With ``base`` (a :func:`counts`
    snapshot) the published values are deltas since that snapshot —
    pool workers publish per-task deltas so merged sweep telemetry is
    independent of how tasks were packed onto processes.  ``merged`` (a
    second dict pair) adds counts folded in from child tracers (one-shot
    reasons fold by max, see :data:`ONE_SHOT_REASONS`).  Every known
    kernel name and decline reason is declared even at zero so the
    exposition carries stable series.
    """
    base_calls, base_fallbacks = base if base is not None else ({}, {})
    extra_calls, extra_fallbacks = merged if merged is not None else ({}, {})
    names = set(kernel_calls) | set(extra_calls) | set(KERNELS)
    for kernel in sorted(names):
        n = max(0, kernel_calls.get(kernel, 0) - base_calls.get(kernel, 0))
        n += extra_calls.get(kernel, 0)
        registry.gauge(
            "repro_kernel_calls_total",
            labels={"kernel": kernel},
            help="vectorized kernel selections, by kernel",
        ).set(n)
    reasons = set(kernel_fallbacks) | set(extra_fallbacks) | set(
        KERNEL_FALLBACK_REASONS
    )
    for reason in sorted(reasons):
        n = max(0, kernel_fallbacks.get(reason, 0) - base_fallbacks.get(reason, 0))
        extra = extra_fallbacks.get(reason, 0)
        if reason in ONE_SHOT_REASONS:
            n = max(n, extra)
        else:
            n += extra
        registry.gauge(
            "repro_kernel_fallback_total",
            labels={"reason": reason},
            help="scalar-loop fallbacks, by reason",
        ).set(n)


# ----------------------------------------------------------------------
# Scalar references — the ground truth the vector paths must match
# ----------------------------------------------------------------------
def _lindley_scalar(free_at: float, times, txs) -> list:
    out = []
    for i in range(len(times)):
        t = times[i]
        start = free_at if free_at > t else t
        free_at = start + txs[i]
        out.append(free_at)
    return out


def _prefix_sum_scalar(initial: float, deltas) -> list:
    out = [initial]
    acc = initial
    for d in deltas:
        acc = acc + d
        out.append(float(acc))
    return out


def _lindley_segmented_scalar(free_at, times, sizes, bounds, caps) -> list:
    """Ground-truth fold under a piecewise-constant capacity schedule.

    ``caps[k]`` is the rate in force on ``[bounds[k-1], bounds[k])``
    (``caps`` has one more entry than ``bounds``); each transmission is
    served at the rate in force at its *start* instant, with a start
    exactly on a boundary taking the new rate — the same lookup
    ``Link.capacity_at`` performs with ``bisect_right``.
    """
    out = []
    for i in range(len(times)):
        t = times[i]
        start = free_at if free_at > t else t
        cap = caps[bisect_right(bounds, start)]
        free_at = start + sizes[i] * 8.0 / cap
        out.append(free_at)
    return out


def _masked_prefix_sum_scalar(values, mask, initial):
    out = []
    acc = initial
    for i in range(len(values)):
        if mask[i]:
            acc = acc + values[i]
        out.append(acc)
    return out


# ----------------------------------------------------------------------
# Readiness / self-check
# ----------------------------------------------------------------------
def enabled(vector: Optional[bool] = None) -> bool:
    """True when the vector kernels may be used for this call.

    Combines the opt-out — the caller's resolved ``vector`` flag, or
    ``REPRO_NO_VECTOR`` when it passes none (via
    :func:`~repro.netsim.fastpath.resolve_vector`) — with availability:
    numpy importable and the first-use self-check passed.
    """
    global _noted_disabled
    if not resolve_vector(vector):
        if not _noted_disabled:
            _noted_disabled = True
            _note_fallback("disabled")
        return False
    ready = _ready
    if ready is None:
        ready = _initialize()
    return ready


def _initialize() -> bool:
    global _ready
    if np is None:
        _note_fallback("numpy-missing")
        _ready = False
        return False
    try:
        ok = _self_check()
    except Exception:
        ok = False
    if not ok:
        _note_fallback("self-check")
    _ready = ok
    return ok


def _self_check() -> bool:
    """Bit-equality of every vector path against its scalar reference."""
    tiny = 5e-324  # smallest subnormal: rounding differences cannot hide
    # A busy period longer than the scan depth between idle gaps, so the
    # seeded-accumulate finish runs too.
    long_t = [0.0] + [0.01 * k for k in range(1, _DEPTH + 8)] + [100.0, 100.5]
    long_tx = [0.5] * len(long_t)
    lindley_cases = [
        # (free_at, times, txs) spanning idle / saturated / mixed / ties
        (0.5, [1.0], [0.25]),
        (5.0, [1.0], [0.25]),
        (0.0, [0.0, 1.0, 2.0, 3.0], [0.5, 0.5, 0.5, 0.5]),          # all idle
        (10.0, [0.0, 0.1, 0.2, 0.3], [7.0, 7.0, 7.0, 7.0]),         # all busy
        (0.0, [0.0, 0.1, 5.0, 5.1, 20.0], [1.0, 1.0, 1.0, 1.0, 1.0]),
        (0.0, [1.0, 1.0, 1.0, 2.0, 2.0], [0.1, 0.2, 0.3, 0.1, 0.2]),  # ties
        (tiny, [tiny, 2 * tiny, 1.0], [tiny, tiny, tiny]),
        (1e300, [0.0, 1.0, 1e300, 2e300], [1e285, 1e285, 1e285, 1e285]),
        (0.3, [0.1 * k for k in range(1, 40)], [0.077] * 39),
        (0.0, long_t, long_tx),
        (50.0, long_t, long_tx),
    ]
    for free_at, times, txs in lindley_cases:
        want = _lindley_scalar(free_at, times, txs)
        got = _scan(
            free_at,
            np.asarray(times, dtype=np.float64),
            np.asarray(txs, dtype=np.float64),
        )
        if got is not None and got.tolist() != want:
            return False
    segmented_cases = [
        # (free_at, times, sizes, bounds, caps): idle and busy partitions,
        # arrivals exactly on a boundary (new rate), empty partitions,
        # rate steps both directions.
        (0.0, [0.1, 0.4, 1.0, 1.3], [100, 100, 100, 100], [1.0], [8e3, 4e3]),
        (0.5, [0.6, 0.61, 0.62, 2.5, 2.51], [500, 500, 500, 500, 500],
         [1.0, 2.0], [8e5, 4e5, 1.6e6]),
        (0.0, [3.0, 3.5], [200, 200], [1.0, 2.0], [8e3, 8e4, 8e5]),
        (0.0, [0.1 * k for k in range(1, 30)], [125] * 29,
         [1.5], [1e4, 2e4]),
    ]
    for free_at, times, sizes, bounds, caps in segmented_cases:
        want = _lindley_segmented_scalar(free_at, times, sizes, bounds, caps)
        got = _lindley_segmented_numpy(
            free_at,
            np.asarray(times, dtype=np.float64),
            np.asarray(sizes, dtype=np.int64),
            bounds,
            caps,
            note=False,
        )
        if got is not None and got.tolist() != want:
            return False
    # A backlog spilling a transmission start across the boundary must
    # make the kernel decline — a fixed-rate fold would be wrong there.
    spill = _lindley_segmented_numpy(
        0.0,
        np.asarray([0.9, 0.91, 0.92], dtype=np.float64),
        np.asarray([12500, 12500, 12500], dtype=np.int64),
        [1.0],
        [1e6, 2e6],  # each tx is 0.1s at 1 Mb/s: starts 2 and 3 spill
        note=False,
    )
    if spill is not None:
        return False
    prefix_cases = [
        (0.0, []),
        (1.5, [0.25, 0.5, 0.125]),
        (0.1, [0.2, 0.3, 0.4, tiny, 1e-17, 5.0]),
    ]
    for initial, deltas in prefix_cases:
        want = _prefix_sum_scalar(initial, deltas)
        got = _prefix_sum_numpy(initial, np.asarray(deltas, dtype=np.float64))
        if got.tolist() != want:
            return False
    masked_cases = [
        ([], [], 0),
        ([3, 1, 4, 1, 5], [True, False, True, True, False], 2),
        ([0.25, 0.5, 0.125, 1e-17], [True, True, False, True], 0.0),
    ]
    for values, mask, initial in masked_cases:
        want = _masked_prefix_sum_scalar(values, mask, initial)
        got = _masked_prefix_sum_numpy(
            np.asarray(values), np.asarray(mask, dtype=bool), initial
        )
        if got is None or len(got) != len(want):
            return False
        if any(a != b for a, b in zip(got, want)):
            return False
    return True


# ----------------------------------------------------------------------
# Core kernels (numpy paths)
# ----------------------------------------------------------------------
def _scan(free_at, t, tx):
    """Exact Lindley fold of one block of float64 arrays.

    Returns ``f`` with ``f[i] == max(t[i], f[i-1]) + tx[i]`` under the
    scalar evaluation order (``f[-1]`` = ``free_at``), or None when the
    induction proof fails.  ``t`` must be non-empty.

    1. *Closed forms.*  If no service can overlap the next arrival even
       from a standing start, ``f = t + tx``; if every chained completion
       lands past the next arrival, ``f`` is one seeded chain (tried
       first only when few positions could start idle).  Both validity
       tests are the induction conditions themselves.
    2. *Structure guess.*  The prefix-sum/running-max transformation
       gives approximate completion times; positions whose predecessor
       is (approximately) still in service are *busy*.
    3. *Depth-ordered scan.*  Every element starts at its idle value
       ``t + tx``.  Busy elements form runs (the tails of busy periods);
       laying the runs out as the columns of a ``(depth, run)`` matrix
       turns each depth into one contiguous row, computed from the row
       above with one vector add — the scalar loop's own single
       rounding.  Runs deeper than :data:`_DEPTH` finish with a seeded
       ``np.add.accumulate`` each.
    4. *Proof.*  A vectorized check that every element after the first
       satisfies the recursion under the same rounding; any sequence
       passing it equals the scalar fold exactly.
    """
    n = t.shape[0]
    t0 = t[0]
    first = (free_at if free_at > t0 else t0) + tx[0]
    out = t + tx
    out[0] = first
    # Positions whose service would end before the next arrival even
    # from a standing start.
    n_free = int(np.count_nonzero(out[:-1] <= t[1:]))
    if free_at <= t0 and n_free == n - 1:
        return out
    if n_free * 8 < n:
        # Rarely free even from a standing start: most likely one busy
        # period, so try the all-busy chain before the structure guess.
        chain = tx.copy()
        chain[0] = first
        np.add.accumulate(chain, out=chain)
        if n == 1 or bool((chain[:-1] > t[1:]).all()):
            return chain
    # Structure guess (rounding differs; only the busy flags are used).
    s = np.add.accumulate(tx)
    g = t - s
    g += tx  # g[k] = t[k] - sum(tx[:k])
    if free_at > t0:
        g[0] = free_at
    np.maximum.accumulate(g, out=g)
    g += s
    busy = np.flatnonzero(g[:-1] > t[1:])
    nb = busy.shape[0]
    if nb == n - 1:
        # One busy period: a single seeded chain.
        out[1:] = tx[1:]
        np.add.accumulate(out, out=out)
    elif nb:
        busy += 1
        # Run heads: busy positions whose predecessor is not busy.
        head = np.empty(nb, dtype=bool)
        head[0] = True
        np.not_equal(busy[1:], busy[:-1] + 1, out=head[1:])
        rs = np.flatnonzero(head)
        nr = rs.shape[0]
        rid = np.add.accumulate(head, dtype=np.intp)
        rid -= 1
        dep = np.arange(1, nb + 1)
        dep -= rs[rid]  # depth >= 1 inside the busy period
        ends = np.empty(nr, dtype=np.intp)
        ends[:-1] = rs[1:]
        ends[-1] = nb
        lens = ends - rs
        deepest = int(lens.max())
        w = deepest if deepest < _DEPTH else _DEPTH
        if deepest > w:
            deep = busy[dep > w]
            out[deep] = tx[deep]  # the seeded accumulates' addends
            keep = np.flatnonzero(dep <= w)
            dep = dep[keep]
            rid = rid[keep]
            cells = busy[keep]
        else:
            cells = busy
        flat = dep * nr
        flat += rid
        y = np.zeros((w + 1) * nr)
        y[:nr] = out[busy[rs] - 1]  # row 0: each run's idle-start seed
        y[flat] = tx[cells]
        rows = y.reshape(w + 1, nr)
        for d in range(1, w + 1):
            np.add(rows[d - 1], rows[d], out=rows[d])
        out[cells] = y[flat]
        if deepest > w:
            long_runs = np.flatnonzero(lens > w)
            lo = busy[rs[long_runs]] + (w - 1)
            hi = busy[ends[long_runs] - 1] + 1
            for a, b in zip(lo.tolist(), hi.tolist()):
                np.add.accumulate(out[a:b], out=out[a:b])
    # Induction proof of bit-equality with the scalar fold (out[0] is
    # the scalar loop's first step verbatim).
    if not bool((out[1:] == np.maximum(t[1:], out[:-1]) + tx[1:]).all()):
        return None
    return out


def _fold(free_at, t, tx_of, keep_after=-float("inf")):
    """Blocked exact fold of arrivals ``t``; ``tx_of(a, b)`` gives the
    service times of block ``[a, b)``.

    Returns ``(end_free_at, kept, first)`` — the completion times after
    ``keep_after`` (a suffix, completions being monotone; all of them by
    default) and the index of the first one — or None when a block's
    proof fails (``verify-failed`` is noted).
    """
    n = t.shape[0]
    kept = []
    first_kept = n
    for a in range(0, n, _BLOCK):
        b = a + _BLOCK if a + _BLOCK < n else n
        f = _scan(free_at, t[a:b], tx_of(a, b))
        if f is None:
            _note_fallback("verify-failed")
            return None
        free_at = float(f[-1])
        if free_at > keep_after:
            k = int(np.searchsorted(f, keep_after, side="right"))
            if a + k < first_kept:
                first_kept = a + k
            kept.append(f[k:])
    if len(kept) != 1:
        kept = [np.concatenate(kept)] if kept else [t[:0]]
    return free_at, kept[0], first_kept


def _prefix_sum_numpy(initial, deltas):
    acc = np.empty(deltas.shape[0] + 1, dtype=np.float64)
    acc[0] = initial
    acc[1:] = deltas
    return np.add.accumulate(acc, out=acc)


def _masked_prefix_sum_numpy(values, mask, initial):
    n = values.shape[0]
    zero = values.dtype.type(0)
    acc = np.empty(n + 1, dtype=values.dtype)
    acc[0] = initial
    np.copyto(acc[1:], np.where(mask, values, zero))
    return np.add.accumulate(acc)[1:].tolist()


def _lindley_segmented_numpy(free_at, t, sz, bounds, caps, note=True):
    """Capacity-schedule fold: the exact fixed-rate fold per segment.

    Arrivals are partitioned by arrival time at the schedule boundaries
    (``side="left"``: an arrival exactly on a boundary joins the new
    segment, mirroring ``bisect_right`` in the capacity lookup) and each
    partition folds at its segment's rate.  That is exact only if every
    transmission *started* inside the segment it was partitioned into — a
    backlog can push a start past the boundary into a different rate.
    Starts are monotone on a FIFO link, so it suffices to check the
    partition's last start: if it reaches the segment end the kernel
    declines (``segment-spill``) and the caller's scalar loop — which
    looks the rate up per packet — takes over.
    """
    n = t.shape[0]
    if n == 0:
        return t[:0]
    cuts = np.searchsorted(t, np.asarray(bounds, dtype=np.float64), side="left")
    out = np.empty(n, dtype=np.float64)
    f = free_at
    p = 0
    nb = len(bounds)
    for k in range(nb + 1):
        q = int(cuts[k]) if k < nb else n
        if q <= p:
            continue
        tp = t[p:q]
        zp = sz[p:q]
        cap = caps[k]
        folded = _fold(f, tp, lambda a, b: zp[a:b] * 8.0 / cap)
        if folded is None:
            return None
        seg = folded[1]
        if k < nb:
            last_start = f if f > t[q - 1] else float(t[q - 1])
            if q - p > 1:
                prev = float(seg[q - p - 2])
                tq = float(t[q - 1])
                last_start = prev if prev > tq else tq
            if last_start >= bounds[k]:
                if note:
                    _note_fallback("segment-spill")
                return None
        out[p:q] = seg
        f = float(seg[-1])
        p = q
    return out


# ----------------------------------------------------------------------
# Public kernels
# ----------------------------------------------------------------------
def lindley(free_at: float, times, txs, vector: Optional[bool] = None):
    """Vectorized exact Lindley fold; list of completion times, or None.

    ``None`` means the kernel declined (disabled, unavailable, or the
    induction proof failed) and the caller must run its scalar loop.
    Inputs may be lists or float64 arrays.
    """
    if not enabled(vector):
        return None
    t = np.asarray(times, dtype=np.float64)
    if t.shape[0] == 0:
        return []
    tx = np.asarray(txs, dtype=np.float64)
    folded = _fold(free_at, t, lambda a, b: tx[a:b])
    if folded is None:
        return None
    _count("lindley")
    return folded[1].tolist()


def lindley_segmented(
    free_at: float, times, sizes, bounds, caps, vector: Optional[bool] = None
):
    """Exact Lindley fold under a piecewise-constant capacity schedule.

    ``bounds``/``caps`` follow the :meth:`Link.capacity_at` convention
    (``caps[k]`` in force on ``[bounds[k-1], bounds[k])``, a start
    exactly on a boundary taking the new rate).  Returns the list of
    completion times, or None when the kernel declines — disabled, a
    busy period spilling a transmission start across a boundary
    (``segment-spill``), or a failed proof.
    """
    if not enabled(vector):
        return None
    t = np.asarray(times, dtype=np.float64)
    sz = np.asarray(sizes, dtype=np.int64)
    out = _lindley_segmented_numpy(free_at, t, sz, bounds, caps)
    if out is None:
        return None
    _count("lindley_segmented")
    return out.tolist()


def prefix_sum(initial: float, deltas, vector: Optional[bool] = None):
    """Running sum ``[initial, initial+d0, initial+d0+d1, ...]``.

    Always returns the full length ``len(deltas) + 1`` float64 array; the
    numpy path (a seeded ``np.add.accumulate``) and the scalar fallback
    are bit-identical by construction, so this kernel never declines —
    it only degrades.
    """
    if enabled(vector):
        _count("prefix_sum")
        return _prefix_sum_numpy(initial, np.asarray(deltas, dtype=np.float64))
    if np is not None and isinstance(deltas, np.ndarray):
        deltas = deltas.tolist()
    return np.asarray(_prefix_sum_scalar(initial, deltas), dtype=np.float64)


def masked_prefix_sum(values, mask, initial=0, vector: Optional[bool] = None):
    """Running sum of ``values[i]`` where ``mask[i]``, carrying elsewhere.

    Returns a list of length ``len(values)`` (``out[-1]`` is the masked
    total).  Integer inputs stay exact; float inputs are ``==``-equal to
    the scalar fold (the unmasked positions add an exact zero, which can
    normalize ``-0.0`` to ``+0.0`` — equal under ``==``).
    """
    if enabled(vector) and len(values) >= 1:
        _count("masked_prefix_sum")
        return _masked_prefix_sum_numpy(
            np.asarray(values), np.asarray(mask, dtype=bool), initial
        )
    return _masked_prefix_sum_scalar(values, mask, initial)


def merge_parts(parts_t: Sequence, parts_s: Sequence, vector: Optional[bool] = None):
    """Stable k-way merge of per-feed arrival arrays.

    Returns ``(times, sizes, part_idx)`` as float64/int64/intp arrays
    ordered by time with exact-time ties broken by part order (then
    within-part order) — the order a ``(time, part, index)``-keyed heap
    would produce.  ``part_idx`` is ``None`` for a single part (the order
    is the part itself, returned uncopied).  The numpy path is a stable
    argsort over the concatenation; the fallback is a stable Python
    sort.  Pure reordering, no arithmetic, so both paths are trivially
    bit-exact.
    """
    if len(parts_t) == 1:
        return parts_t[0], parts_s[0], None
    if enabled(vector):
        _count("merge")
        cat_t = np.concatenate(parts_t)
        order = np.argsort(cat_t, kind="stable")
        part_idx = np.repeat(
            np.arange(len(parts_t)), [p.shape[0] for p in parts_t]
        )
        return cat_t[order], np.concatenate(parts_s)[order], part_idx[order]
    entries = []
    for k, (ts, ss) in enumerate(zip(parts_t, parts_s)):
        entries.extend(zip(ts.tolist(), [k] * len(ts), ss.tolist()))
    entries.sort(key=lambda e: e[0])  # stable: ties keep (part, index) order
    return (
        np.array([e[0] for e in entries], dtype=np.float64),
        np.array([e[2] for e in entries], dtype=np.int64),
        np.array([e[1] for e in entries], dtype=np.intp),
    )


# ----------------------------------------------------------------------
# Site-facing fold wrappers (keep numpy out of the call sites)
# ----------------------------------------------------------------------
def _in_flight(done, sz):
    """``(pairs, nbytes)``: the ``(completion, size)`` pairs still in flight."""
    return list(zip(done.tolist(), sz.tolist())), int(sz.sum())


def fold_slice(free_at, times, sizes, cap, keep_after, vector: Optional[bool] = None):
    """Fold arrivals ``times`` / ``sizes`` (float64 / int64 arrays, one
    slice of the merged queue) through a FIFO transmitter of ``cap`` bps
    starting at ``free_at``.

    Returns ``(end_free_at, kept, kept_bytes, fold_bytes)`` where
    ``kept`` lists the ``(completion, size)`` pairs still in flight after
    ``keep_after`` — or None when the kernel declines and the caller must
    run its scalar loop.  Used by ``Link._advance``'s cross-only
    infinite-buffer fold (``keep_after`` = the instant it folds up to).
    """
    if not enabled(vector):
        return None
    folded = _fold(free_at, times, lambda a, b: sizes[a:b] * 8.0 / cap, keep_after)
    if folded is None:
        return None
    _count("lindley")
    end, done, first = folded
    return (end, *_in_flight(done, sizes[first:]), int(sizes.sum()))


def fold_slice_segmented(
    free_at, times, sizes, bounds, caps, keep_after, vector: Optional[bool] = None
):
    """Capacity-schedule twin of :func:`fold_slice` — same contract.

    Returns ``(end_free_at, kept, kept_bytes, fold_bytes)`` or None when
    declining; the per-segment spill check inside the fold keeps the
    result exact.
    """
    if not enabled(vector):
        return None
    f = _lindley_segmented_numpy(free_at, times, sizes, bounds, caps)
    if f is None:
        return None
    _count("lindley_segmented")
    k = int(np.searchsorted(f, keep_after, side="right"))
    return (float(f[-1]), *_in_flight(f[k:], sizes[k:]), int(sizes.sum()))


def plan_hop(
    free_at, ct, cs, p_times, p_size, cap, t_end, prop,
    vector: Optional[bool] = None,
):
    """Plan one infinite-buffer hop of a probe stream in one fold.

    Merges cross arrivals ``ct``/``cs`` (float64/int64 arrays of the
    merged queue's due slice, or None on a hop without cross traffic;
    ties first, matching the per-packet path)
    with the sorted probe arrivals ``p_times`` of uniform ``p_size``
    bytes, runs the exact Lindley fold, and gathers the planner's
    observables.  Returns ``(dones, exits, new_in_flight, end_free_at,
    fwd_bytes)`` — probe completion times in probe order, their hop-exit
    times (``done + prop``), the merged entries still in flight after
    ``t_end``, the transmitter state, and total bytes forwarded — or None
    when declining (kernel disabled, probes reordered by jitter, or a
    failed proof).
    """
    if not enabled(vector):
        return None
    npr = len(p_times)
    if npr == 0:
        return None
    nc = 0 if ct is None else ct.shape[0]
    p = np.asarray(p_times, dtype=np.float64)
    if nc == 0:
        # Pure probe stream: constant rate, constant size, so the fold
        # is (almost always) one of the scan's closed forms.
        tx = p_size * 8.0 / cap
        folded = _fold(free_at, p, lambda a, b: np.full(b - a, tx))
        if folded is None:
            return None
        _count("lindley")
        f = folded[1]
        dones = f.tolist()
        # Completion times are monotone on a FIFO link, so the still-in-
        # flight suffix is a single searchsorted cut.
        kidx = int(np.searchsorted(f, t_end, side="right"))
        new_in_flight = [(d, p_size) for d in dones[kidx:]]
        exits = (f + prop).tolist()
        return dones, exits, new_in_flight, dones[-1], p_size * npr
    if npr > 1 and not (p[1:] >= p[:-1]).all():
        # Send jitter reordered the schedule: the scalar walk's fold
        # order is no longer the sorted merge.
        _note_fallback("unsorted-probes")
        return None
    # Stable positional merge, cross first on exact-time ties
    # (side="right"), mirroring the scalar walk's ``tc > t: break``.
    pos = np.searchsorted(ct, p, side="right") + np.arange(npr)
    m = npr + nc
    mt = np.empty(m, dtype=np.float64)
    msz = np.empty(m, dtype=np.int64)
    pmask = np.zeros(m, dtype=bool)
    pmask[pos] = True
    mt[pmask] = p
    mt[~pmask] = ct
    msz[pmask] = p_size
    msz[~pmask] = cs
    folded = _fold(free_at, mt, lambda a, b: msz[a:b] * 8.0 / cap)
    if folded is None:
        return None
    _count("lindley")
    _count("merge")
    f = folded[1]
    dones = f[pos]
    exits = (dones + prop).tolist()
    k = int(np.searchsorted(f, t_end, side="right"))
    new_in_flight = _in_flight(f[k:], msz[k:])[0]
    return dones.tolist(), exits, new_in_flight, float(f[-1]), int(msz.sum())


def masked_pending(owner_idx, sizes, key, vector: Optional[bool] = None):
    """Count/sum the entries whose owner index equals ``key``.

    ``owner_idx`` / ``sizes`` are the merged queue's pending tail (intp /
    int64 arrays).  The masked-prefix-sum shape over an owner mask;
    returns ``(count, nbytes)``, from a scalar loop when the kernels are
    off.
    """
    if not enabled(vector):
        n = nbytes = 0
        for o, s in zip(owner_idx.tolist(), sizes.tolist()):
            if o == key:
                n += 1
                nbytes += s
        return n, nbytes
    _count("masked_prefix_sum")
    mask = owner_idx == key
    return int(np.count_nonzero(mask)), int(sizes[mask].sum())


def _reset_for_tests() -> None:
    """Clear readiness + counters (test hook; not part of the API)."""
    global _ready, _noted_disabled
    _ready = None
    _noted_disabled = False
    kernel_calls.clear()
    kernel_fallbacks.clear()
