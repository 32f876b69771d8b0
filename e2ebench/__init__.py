"""End-to-end benchmark of the figure suite's simulator workloads.

Run from the repository root::

    python3 e2ebench/run.py --workload fig4-pathload --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object (``correct``,
``attempted``, ``failed``, ``metrics``); the lines before it are a
human-readable table of every metric with its unit.  ``--trace 1`` adds a
separately timed pass that attributes host time to the simulator's layers
(:mod:`e2ebench.layers`).  Tests: ``python3 -m pytest e2ebench -q``.
"""
