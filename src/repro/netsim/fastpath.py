"""Shared fast-path / vector-kernel opt-out resolution.

Every event-elided data path (bulk cross traffic, analytic probe-stream
transit, the flow-transit planner) honors the same three-level opt-out:

1. an explicit ``fast=`` argument on the component (``ProbeChannel``,
   ``TCPSender``, ``Pinger``, ``run_pathload``, ...) wins outright;
2. otherwise ``REPRO_NO_FAST=1`` in the environment disables the
   fast path (the hook the CLIs' ``--no-fast`` flags and the sweep
   workers use, since worker processes only inherit the environment);
3. otherwise the fast path is on.

The vectorized planning kernels (:mod:`repro.netsim.kernels`) honor the
same precedence under their own switch, ``REPRO_NO_VECTOR`` (CLI flag
``--no-vector``): the two axes are independent, so a run can take the
analytic fast paths while forcing every inner fold through the scalar
loops, or vice versa.

Results are bit-identical either way; the switches exist for A/B timing
and for debugging with per-packet event granularity.  This helper is the
single resolution point so the probe and flow paths, the kernels, and
the CLIs cannot drift apart.
"""

from __future__ import annotations

import os
from typing import Optional

__all__ = ["resolve_fast", "resolve_vector", "NO_FAST_ENV", "NO_VECTOR_ENV"]

#: Environment variable that disables every analytic fast path.
NO_FAST_ENV = "REPRO_NO_FAST"

#: Environment variable that disables the vectorized planning kernels.
NO_VECTOR_ENV = "REPRO_NO_VECTOR"


def _resolve(flag: Optional[bool], env_var: str) -> bool:
    """Shared precedence: explicit flag wins, else env opt-out, else on.

    Only the value ``"1"`` opts out (the value every CLI writes), so
    ``REPRO_NO_FAST=0`` leaves the fast paths on.
    """
    if flag is not None:
        return bool(flag)
    return os.environ.get(env_var) != "1"


def resolve_fast(fast: Optional[bool] = None) -> bool:
    """Resolve an optional ``fast=`` argument against ``REPRO_NO_FAST``.

    ``True``/``False`` are taken as-is; ``None`` (the default everywhere)
    means "on unless the environment opts out".
    """
    return _resolve(fast, NO_FAST_ENV)


def resolve_vector(vector: Optional[bool] = None) -> bool:
    """Resolve an optional ``vector=`` argument against ``REPRO_NO_VECTOR``.

    Same precedence as :func:`resolve_fast`.  A ``False`` result routes
    every kernel call site to its scalar twin loop.
    """
    return _resolve(vector, NO_VECTOR_ENV)
