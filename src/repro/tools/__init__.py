"""Developer tools: log inspection and debugging aids.

Run them as modules: ``python -m repro.tools.logdump`` and
``python -m repro.tools.tracedump``.
"""
