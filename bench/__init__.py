"""The repository benchmark: four recovery-terminated workloads.

``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1`` is
the contract entry point recorded in ``BENCHMARK.json``;
``python -m bench`` adds the set runner, ``calibrate``, ``compare`` and
``attribution`` on top of it.  See ``bench/README.md``.
"""
