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
it.  Instead it exploits the recursion's structure:

* a position ``p`` can only be an idle restart (``start = t_p``) if even
  a server that went idle right before ``p-1``'s service would be free
  by ``t_p`` — i.e. ``t_{p-1} + tx_{p-1} <= t_p``.  That *candidate*
  test is vectorizable, and every true idle restart is a candidate;
* between consecutive candidates the server is provably busy, so the
  completion times are one seeded ``np.add.accumulate`` — the exact
  scalar chain;
* each candidate boundary itself is resolved with the scalar branch
  (one comparison, one addition — the very ops the loop would do).

When every position is a candidate and the server starts idle, the whole
fold collapses to the closed form ``t + tx`` (one vector add, exact).
When candidates are dense but not total — a moderately loaded link — the
per-segment dispatch overhead would eat the win, so the kernel *declines*
and the call site keeps its scalar loop (see ``MIN_MEAN_SEGMENT``).
Saturated links (probe streams at or above avail-bw, the hot case) give
long busy runs and the full vector speedup.

Self-check and degradation
--------------------------
The first kernel call runs a representative-case self-check comparing
every vector path against the in-module scalar references with ``==``.
Any mismatch — or numpy failing to import — permanently disables the
kernels for the process and bumps ``repro_kernel_fallback_total`` with
the reason; call sites silently keep their scalar loops, and nothing is
ever raised.  ``REPRO_NO_VECTOR`` (resolved through
:func:`repro.netsim.fastpath.resolve_vector`, CLI flag ``--no-vector``)
forces the same fallback for A/B timing.  ``Simulator(sanitize=True)``
additionally shadow-verifies planned streams end to end, so a kernel
divergence that somehow escaped the self-check is still caught at
runtime.

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
    "MIN_MEAN_SEGMENT",
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
#: array conversion plus kernel dispatch would cost more than it saves.
#: Crossover measured on the substrate microbenches: ~1 k elements when
#: the slice must be converted from lists, ~200 when the aggregator's
#: array mirror feeds the kernel directly.
MIN_BATCH = 256

#: The Lindley kernel declines when the *mean busy-segment length* it
#: detects falls below this, because each segment pays one
#: ``np.add.accumulate`` dispatch.  Tuned on the substrate microbenches.
MIN_MEAN_SEGMENT = 24.0

#: Offered-load pre-gate for the fold wrappers: below this utilization
#: busy segments are short (mean ≈ 1/(1-ρ) arrivals), so the wrappers
#: decline before paying any list→array conversion.  ρ ≈ 0.97 puts the
#: expected segment length past ``MIN_MEAN_SEGMENT``; anything lower
#: passed the gate only to decline after paying the conversion.  The
#: residual structure check (``MIN_MEAN_SEGMENT``) catches bursty
#: exceptions that sneak past.
MIN_RHO = 0.97

#: Floor for the cross-free :func:`plan_hop` case.  A pure probe stream
#: is paced at a constant rate with a constant packet size, so its fold
#: collapses to one of the two closed forms (all-idle when R ≤ C,
#: all-busy when R > C) — a handful of vector passes regardless of load,
#: which beats the scalar walk from far fewer elements than the general
#: segment walk does.  The ρ pre-gate is skipped for this case.  The
#: competition is the planner's specialized cross-free Lindley chain
#: (no tuple traffic at all), which the closed forms only outrun once
#: the fixed ~12 µs of numpy dispatches amortizes — measured crossover
#: ≈220 probes on the reference host.
MIN_PROBES = 256

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
#: "self-check", "short-segments", "verify-failed", "unsorted-probes").
#: One increment per *event* for the permanent reasons, per declined
#: call for the regime ones; never per element.
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

    Combines the ``REPRO_NO_VECTOR`` opt-out (via
    :func:`~repro.netsim.fastpath.resolve_vector`) with availability:
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
    lindley_cases = [
        # (free_at, times, txs) spanning idle / saturated / mixed / ties
        (0.0, [], []),
        (0.5, [1.0], [0.25]),
        (5.0, [1.0], [0.25]),
        (0.0, [0.0, 1.0, 2.0, 3.0], [0.5, 0.5, 0.5, 0.5]),          # all idle
        (10.0, [0.0, 0.1, 0.2, 0.3], [7.0, 7.0, 7.0, 7.0]),         # all busy
        (0.0, [0.0, 0.1, 5.0, 5.1, 20.0], [1.0, 1.0, 1.0, 1.0, 1.0]),
        (0.0, [1.0, 1.0, 1.0, 2.0, 2.0], [0.1, 0.2, 0.3, 0.1, 0.2]),  # ties
        (tiny, [tiny, 2 * tiny, 1.0], [tiny, tiny, tiny]),
        (1e300, [0.0, 1.0, 1e300, 2e300], [1e285, 1e285, 1e285, 1e285]),
        (0.3, [0.1 * k for k in range(1, 40)], [0.077] * 39),
    ]
    for free_at, times, txs in lindley_cases:
        want = _lindley_scalar(free_at, times, txs)
        t = np.asarray(times, dtype=np.float64)
        tx = np.asarray(txs, dtype=np.float64)
        # Force the segment walk even where the regime heuristic would
        # decline, and separately let the closed forms trigger.
        for min_seg in (0.0, MIN_MEAN_SEGMENT):
            got, _reason = _lindley_numpy(free_at, t, tx, min_seg)
            if got is not None and list(got) != want:
                return False
    segmented_cases = [
        # (free_at, times, sizes, bounds, caps): idle and busy partitions,
        # arrivals exactly on a boundary (new rate), empty partitions,
        # rate steps both directions.
        (0.0, [], [], [1.0], [8.0, 16.0]),
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
            min_seg=0.0,
            note=False,
        )
        if got is not None and list(got) != want:
            return False
    # A backlog spilling a transmission start across the boundary must
    # make the kernel decline — a fixed-rate fold would be wrong there.
    spill = _lindley_segmented_numpy(
        0.0,
        np.asarray([0.9, 0.91, 0.92], dtype=np.float64),
        np.asarray([12500, 12500, 12500], dtype=np.int64),
        [1.0],
        [1e6, 2e6],  # each tx is 0.1s at 1 Mb/s: starts 2 and 3 spill
        min_seg=0.0,
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
        if got != want:
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
def _lindley_numpy(free_at, t, tx, min_mean_seg):
    """Exact Lindley fold over float64 arrays.

    Returns ``(f, None)`` with ``f[i] == max(t[i], f[i-1]) + tx[i]``
    under the scalar evaluation order, or ``(None, reason)`` when the
    kernel declines.  Three vector passes:

    1. *Structure guess.*  The classic prefix-sum/running-max Lindley
       transformation computes the completion times up to accumulated
       rounding — useless as output, but its idle restarts (positions
       where the approximate backlog drains) locate the true busy
       segments to within FP noise.
    2. *Exact walk.*  Each guessed segment boundary is resolved with the
       scalar branch (one comparison, one addition — the loop's own
       ops); each segment interior is one seeded left-to-right
       ``np.add.accumulate``, the bit-exact scalar chain.
    3. *Proof.*  A vectorized induction check that every element
       satisfies ``out[i] == max(t[i], out[i-1]) + tx[i]`` under the
       same single rounding.  Any sequence passing it equals the scalar
       fold exactly, so a mis-guessed boundary (possible only on an FP
       near-tie) can never leak: verification fails and the call site
       runs its scalar loop.
    """
    n = t.shape[0]
    if n == 0:
        return t[:0], None
    if free_at <= t[0]:
        idle = t + tx
        if bool((idle[:-1] <= t[1:]).all()):
            # Every service would finish before the next arrival even
            # from a standing start: by induction no backlog ever
            # forms, f = t + tx.
            return idle, None
    # All-busy closed form — the saturated hot case (probe streams at or
    # above avail-bw, greedy TCP): one seeded chain.  If every chained
    # completion lands past the next arrival, the server never idles, so
    # by induction the chain *is* the exact scalar fold — no structure
    # guess or verification pass needed.
    t0 = t[0]
    chain = np.empty(n, dtype=np.float64)
    chain[0] = (free_at if free_at > t0 else t0) + tx[0]
    chain[1:] = tx[1:]
    np.add.accumulate(chain, out=chain)
    if n == 1 or bool((chain[:-1] > t[1:]).all()):
        return chain, None
    # Pass 1: approximate completion times (rounding differs, values are
    # only used to place segment boundaries).
    s = np.cumsum(tx)
    g = t - s
    g += tx  # g[k] = t[k] - sum(tx[:k]), one temp
    if free_at > t[0]:
        g[0] = free_at
    approx = np.maximum.accumulate(g)
    approx += s
    bounds = (np.nonzero(approx[:-1] <= t[1:])[0] + 1).tolist()
    if min_mean_seg and n < (len(bounds) + 1) * min_mean_seg:
        # Busy segments too short: per-segment dispatch would cost more
        # than the scalar loop.  (Declining on the guess is safe — it
        # only routes the caller to the always-correct scalar path.)
        return None, "short-segments"
    bounds.append(n)
    # Pass 2: exact per-segment chains.
    out = tx.copy()
    f = free_at
    p = 0
    for q in bounds:
        tp = t[p]
        start = f if f > tp else tp
        out[p] = start + tx[p]
        if q - p > 1:
            np.add.accumulate(out[p:q], out=out[p:q])
        f = out[q - 1]
        p = q
    # Pass 3: induction proof of bit-equality with the scalar fold.
    t0 = t[0]
    start0 = free_at if free_at > t0 else t0
    if out[0] != start0 + tx[0]:
        return None, "verify-failed"
    if n > 1 and not bool(
        (out[1:] == np.maximum(t[1:], out[:-1]) + tx[1:]).all()
    ):
        return None, "verify-failed"
    return out, None


def _prefix_sum_numpy(initial, deltas):
    acc = np.empty(deltas.shape[0] + 1, dtype=np.float64)
    acc[0] = initial
    acc[1:] = deltas
    return np.add.accumulate(acc).tolist()


def _masked_prefix_sum_numpy(values, mask, initial):
    n = values.shape[0]
    zero = values.dtype.type(0)
    acc = np.empty(n + 1, dtype=values.dtype)
    acc[0] = initial
    np.copyto(acc[1:], np.where(mask, values, zero))
    return np.add.accumulate(acc)[1:].tolist()


# ----------------------------------------------------------------------
# Public kernels
# ----------------------------------------------------------------------
def lindley(free_at: float, times, txs, min_mean_seg: Optional[float] = None):
    """Vectorized exact Lindley fold; list of completion times, or None.

    ``None`` means the kernel declined (disabled, unavailable, or the
    detected busy segments are too short to win) and the caller must run
    its scalar loop.  Inputs may be lists or float64 arrays.
    """
    if not enabled():
        return None
    t = np.asarray(times, dtype=np.float64)
    tx = np.asarray(txs, dtype=np.float64)
    seg = MIN_MEAN_SEGMENT if min_mean_seg is None else min_mean_seg
    out, reason = _lindley_numpy(free_at, t, tx, seg)
    if out is None:
        _note_fallback(reason)
        return None
    _count("lindley")
    return out.tolist()


def lindley_segmented(free_at: float, times, sizes, bounds, caps):
    """Exact Lindley fold under a piecewise-constant capacity schedule.

    ``bounds``/``caps`` follow the :meth:`Link.capacity_at` convention
    (``caps[k]`` in force on ``[bounds[k-1], bounds[k])``, a start
    exactly on a boundary taking the new rate).  Returns the list of
    completion times, or None when the kernel declines — disabled, a
    busy period spilling a transmission start across a boundary
    (``segment-spill``), or an inner fixed-rate fold declining.
    """
    if not enabled():
        return None
    t = np.asarray(times, dtype=np.float64)
    sz = np.asarray(sizes, dtype=np.int64)
    out = _lindley_segmented_numpy(free_at, t, sz, bounds, caps)
    if out is None:
        return None
    return out.tolist()


def prefix_sum(initial: float, deltas) -> list:
    """Running sum ``[initial, initial+d0, initial+d0+d1, ...]``.

    Always returns the full length ``len(deltas) + 1`` list; the numpy
    path (a seeded ``np.add.accumulate``) and the scalar fallback are
    bit-identical by construction, so this kernel never declines — it
    only degrades.
    """
    if enabled():
        _count("prefix_sum")
        return _prefix_sum_numpy(initial, np.asarray(deltas, dtype=np.float64))
    return _prefix_sum_scalar(initial, deltas)


def masked_prefix_sum(values, mask, initial=0):
    """Running sum of ``values[i]`` where ``mask[i]``, carrying elsewhere.

    Returns a list of length ``len(values)`` (``out[-1]`` is the masked
    total).  Integer inputs stay exact; float inputs are ``==``-equal to
    the scalar fold (the unmasked positions add an exact zero, which can
    normalize ``-0.0`` to ``+0.0`` — equal under ``==``).
    """
    if enabled() and len(values) >= 1:
        _count("masked_prefix_sum")
        return _masked_prefix_sum_numpy(
            np.asarray(values), np.asarray(mask, dtype=bool), initial
        )
    return _masked_prefix_sum_scalar(values, mask, initial)


def merge_parts(parts_t: Sequence[list], parts_s: Sequence[list]):
    """Stable k-way merge of per-feed arrival lists.

    Returns ``(times, sizes, part_idx, t_arr, s_arr)``: merged lists
    ordered by time with exact-time ties broken by part order (then
    within-part order) — the order a ``(time, part, index)``-keyed heap
    would produce — plus the merged float64/int64 arrays when the numpy
    path ran (``None``/``None`` otherwise).  ``part_idx`` is ``None``
    for a single part (the order is the part itself).  The numpy path is
    a stable argsort over the concatenation; the fallback is a stable
    Python sort.  Pure reordering, no arithmetic, so both paths are
    trivially bit-exact.  The caller keeps the arrays as its mirror so
    later folds over the merged tail skip the list→array conversion.
    """
    if enabled():
        _count("merge")
        if len(parts_t) == 1:
            # Single contributing part: the merged order is the part
            # itself (returned unsorted and uncopied).
            t_arr = np.asarray(parts_t[0], dtype=np.float64)
            s_arr = np.asarray(parts_s[0], dtype=np.int64)
            return parts_t[0], parts_s[0], None, t_arr, s_arr
        cat_t = np.concatenate(
            [np.asarray(p, dtype=np.float64) for p in parts_t]
        )
        order = np.argsort(cat_t, kind="stable")
        cat_s = np.concatenate(
            [np.asarray(p, dtype=np.int64) for p in parts_s]
        )
        part_idx = np.concatenate(
            [np.full(len(p), k, dtype=np.intp) for k, p in enumerate(parts_t)]
        )
        t_arr = cat_t[order]
        s_arr = cat_s[order]
        return (
            t_arr.tolist(),
            s_arr.tolist(),
            part_idx[order].tolist(),
            t_arr,
            s_arr,
        )
    if len(parts_t) == 1:
        return parts_t[0], parts_s[0], None, None, None
    entries = []
    for k, (ts, ss) in enumerate(zip(parts_t, parts_s)):
        for j in range(len(ts)):
            entries.append((ts[j], k, ss[j]))
    entries.sort(key=lambda e: e[0])  # stable: ties keep (part, index) order
    return (
        [e[0] for e in entries],
        [e[2] for e in entries],
        [e[1] for e in entries],
        None,
        None,
    )


# ----------------------------------------------------------------------
# Site-facing fold wrappers (keep numpy out of the call sites)
# ----------------------------------------------------------------------
def fold_slice(free_at, times, sizes, lo, hi, cap, keep_after, arrays=None):
    """Fold arrivals ``times[lo:hi]`` / ``sizes[lo:hi]`` through a FIFO
    transmitter of ``cap`` bps starting at ``free_at``.

    Returns ``(end_free_at, kept, kept_bytes, fold_bytes)`` where
    ``kept`` lists the ``(completion, size)`` pairs still in flight after
    ``keep_after`` — or None when the kernel declines and the caller must
    run its scalar loop.  Used by ``Link.sync``'s infinite-buffer fold
    (``keep_after = t_now``) and ``flowtransit._fold_cross``
    (``keep_after`` = the last folded arrival time).

    ``arrays``, when given, is the pre-converted ``(float64 times, int64
    sizes)`` pair for the same slice — the
    :meth:`~repro.netsim.bulkarrivals.CrossAggregator.arrays` mirror —
    which skips the list→array conversion that otherwise dominates the
    kernel's cost.
    """
    if not enabled():
        return None
    if arrays is not None:
        t, sz = arrays
        fold_bytes = int(sz.sum())
        span = float(t[-1]) - float(t[0])
    else:
        t = sz = None
        tsl = times[lo:hi]
        ssl = sizes[lo:hi]
        fold_bytes = sum(ssl)
        span = tsl[-1] - tsl[0]
    if fold_bytes * 8.0 < MIN_RHO * cap * span:
        # Offered load too low for long busy runs: the scalar loop wins.
        _note_fallback("short-segments")
        return None
    if t is None:
        t = np.asarray(tsl, dtype=np.float64)
        sz = np.asarray(ssl, dtype=np.int64)
    f = _fold_arrays(free_at, t, sz, cap)
    if f is None:
        return None
    keep = f > keep_after
    if keep.any():
        kept = list(zip(f[keep].tolist(), sz[keep].tolist()))
        kept_bytes = int(sz[keep].sum())
    else:
        kept = []
        kept_bytes = 0
    return float(f[-1]), kept, kept_bytes, fold_bytes


def _fold_arrays(free_at, t, sz, cap, min_seg=None):
    """Shared exact fold core: tx = size * 8.0 / cap, then Lindley."""
    tx = sz * 8.0 / cap
    seg = MIN_MEAN_SEGMENT if min_seg is None else min_seg
    f, reason = _lindley_numpy(free_at, t, tx, seg)
    if f is None:
        _note_fallback(reason)
        return None
    _count("lindley")
    return f


def _lindley_segmented_numpy(free_at, t, sz, bounds, caps, min_seg=None, note=True):
    """Capacity-schedule fold: the proven fixed-rate kernel per segment.

    Arrivals are partitioned by arrival time at the schedule boundaries
    (``side="left"``: an arrival exactly on a boundary joins the new
    segment, mirroring ``bisect_right`` in the capacity lookup) and each
    partition runs :func:`_fold_arrays` at its segment's rate.  That is
    exact only if every transmission *started* inside the segment it was
    partitioned into — a backlog can push a start past the boundary into
    a different rate.  Starts are monotone on a FIFO link, so it
    suffices to check the partition's last start: if it reaches the
    segment end the kernel declines (``segment-spill``) and the caller's
    scalar loop — which looks the rate up per packet — takes over.
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
        seg = _fold_arrays(f, t[p:q], sz[p:q], caps[k], min_seg)
        if seg is None:
            return None
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
    _count("lindley_segmented")
    return out


def fold_slice_segmented(
    free_at, times, sizes, lo, hi, bounds, caps, keep_after, arrays=None
):
    """Capacity-schedule twin of :func:`fold_slice` — same contract.

    Returns ``(end_free_at, kept, kept_bytes, fold_bytes)`` or None when
    declining.  The ρ pre-gate uses the rate in force at the slice's
    first arrival; the per-segment spill check inside the fold keeps the
    result exact whatever the gate lets through.
    """
    if not enabled():
        return None
    if arrays is not None:
        t, sz = arrays
        fold_bytes = int(sz.sum())
        t0 = float(t[0])
        span = float(t[-1]) - t0
    else:
        t = sz = None
        tsl = times[lo:hi]
        ssl = sizes[lo:hi]
        fold_bytes = sum(ssl)
        t0 = tsl[0]
        span = tsl[-1] - t0
    cap_gate = caps[bisect_right(bounds, t0)]
    if fold_bytes * 8.0 < MIN_RHO * cap_gate * span:
        _note_fallback("short-segments")
        return None
    if t is None:
        t = np.asarray(tsl, dtype=np.float64)
        sz = np.asarray(ssl, dtype=np.int64)
    f = _lindley_segmented_numpy(free_at, t, sz, bounds, caps)
    if f is None:
        return None
    keep = f > keep_after
    if keep.any():
        kept = list(zip(f[keep].tolist(), sz[keep].tolist()))
        kept_bytes = int(sz[keep].sum())
    else:
        kept = []
        kept_bytes = 0
    return float(f[-1]), kept, kept_bytes, fold_bytes


def plan_hop(
    free_at, c_times, c_sizes, ci, cut, p_times, p_size, cap, t_end,
    prop, arrays=None,
):
    """Plan one infinite-buffer hop of a probe stream in one fold.

    Merges cross arrivals ``c_times[ci:cut]`` (ties first, matching the
    per-packet path) with the sorted probe arrivals ``p_times`` of
    uniform ``p_size`` bytes, runs the exact Lindley fold, and gathers
    the planner's observables.  Returns ``(dones, exits, new_in_flight,
    end_free_at, fwd_bytes)`` — probe completion times in probe order,
    their hop-exit times (``done + prop``), the merged entries still in
    flight after ``t_end``, the transmitter state, and total bytes
    forwarded — or None when declining (kernel disabled, probes
    reordered by jitter, or busy segments too short).

    ``arrays`` is the optional pre-converted cross slice, as in
    :func:`fold_slice`.
    """
    if not enabled():
        return None
    npr = len(p_times)
    if npr == 0:
        return None
    nc = cut - ci
    if nc == 0:
        # Pure probe stream: constant rate, constant size.  Lindley
        # collapses to one of two closed forms whose validity checks
        # *are* the induction conditions, so no sortedness check, no ρ
        # gate, and no structure guess — a handful of vector passes at
        # any load.  (R ≤ C paces out idle gaps: all-idle.  R > C keeps
        # the transmitter saturated: all-busy.)
        p = np.asarray(p_times, dtype=np.float64)
        tx = p_size * 8.0 / cap
        f = p + tx
        if free_at <= p_times[0] and bool((f[:-1] <= p[1:]).all()):
            _count("lindley")
        else:
            t0 = p_times[0]
            chain = np.empty(npr, dtype=np.float64)
            chain[0] = (free_at if free_at > t0 else t0) + tx
            chain[1:] = tx
            np.add.accumulate(chain, out=chain)
            if npr == 1 or bool((chain[:-1] > p[1:]).all()):
                f = chain
                _count("lindley")
            else:
                # Mixed idle/busy structure (a jittered or lossy
                # schedule): the general guess-walk-verify path.
                f = _fold_arrays(
                    free_at, p, np.full(npr, p_size, dtype=np.int64), cap
                )
                if f is None:
                    return None
        dones = f.tolist()
        # Completion times are monotone on a FIFO link, so the still-in-
        # flight suffix is a single searchsorted cut.
        kidx = int(np.searchsorted(f, t_end, side="right"))
        new_in_flight = [(d, p_size) for d in dones[kidx:]]
        exits = (f + prop).tolist()
        return dones, exits, new_in_flight, dones[-1], p_size * npr
    if arrays is not None:
        ct, cs = arrays
        cross_bytes = int(cs.sum())
        first_cross = float(ct[0])
    else:
        ct = cs = None
        csl = c_sizes[ci:cut]
        cross_bytes = sum(csl)
        first_cross = c_times[ci]
    # With cross traffic merged in, the general segment walk is the
    # likely path — only worth it when the hop runs near saturation.
    first = min(p_times[0], first_cross)
    span = t_end - first
    if (cross_bytes + p_size * npr) * 8.0 < MIN_RHO * cap * span:
        _note_fallback("short-segments")
        return None
    p = np.asarray(p_times, dtype=np.float64)
    if npr > 1 and not (p[1:] >= p[:-1]).all():
        # Send jitter reordered the schedule: the scalar walk's fold
        # order is no longer the sorted merge.
        _note_fallback("unsorted-probes")
        return None
    if ct is None:
        ct = np.asarray(c_times[ci:cut], dtype=np.float64)
        cs = np.asarray(csl, dtype=np.int64)
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
    f = _fold_arrays(free_at, mt, msz, cap)
    if f is None:
        return None
    _count("merge")
    dones = f[pos]
    exits = (dones + prop).tolist()
    keep = f > t_end
    if keep.any():
        new_in_flight = list(zip(f[keep].tolist(), msz[keep].tolist()))
    else:
        new_in_flight = []
    return dones.tolist(), exits, new_in_flight, float(f[-1]), int(msz.sum())


def masked_pending(owners, sizes, lo, hi, owner):
    """Count/sum the entries of ``owner`` in ``owners[lo:hi]``.

    Identity-masked prefix sum over the merged tail (the SIM010
    masked-prefix-sum shape); returns ``(count, nbytes)`` or None when
    the kernel declines.
    """
    if not enabled():
        return None
    _count("masked_prefix_sum")
    own = np.empty(hi - lo, dtype=object)
    for i in range(hi - lo):  # object arrays fill element-wise
        own[i] = owners[lo + i]
    mask = own == owner  # no __eq__ on sources: identity semantics
    count = int(np.count_nonzero(mask))
    if not count:
        return 0, 0
    sz = np.asarray(sizes[lo:hi], dtype=np.int64)
    total = _masked_prefix_sum_numpy(sz, mask, 0)[-1]
    return count, int(total)


def _reset_for_tests() -> None:
    """Clear readiness + counters (test hook; not part of the API)."""
    global _ready, _noted_disabled
    _ready = None
    _noted_disabled = False
    kernel_calls.clear()
    kernel_fallbacks.clear()
