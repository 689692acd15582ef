"""Observability lint: counters must go through the metrics registry.

The repo's cost model is counter-based: benchmarks diff
:class:`~repro.harness.metrics.MetricsSnapshot` around a workload, and
the snapshot is collected from the central
:class:`~repro.obs.registry.MetricsRegistry`.  A counter that a method
bumps ad hoc but never registers is invisible to every benchmark and
report — the worst kind of telemetry bug, because the code *looks*
instrumented.

OBS001 — a method increments a public ``self.<attr>`` that the registry
manifest (``repro.obs.registry.TRACKED_COUNTER_ATTRS``) does not list.
Either add the attribute to the manifest and register a provider for
it, or mark it as private state with a leading underscore.

OBS002 — a method observes into a ``MetricsHub`` instrument the
histogram/time-series manifests (``TRACKED_HISTOGRAM_ATTRS`` /
``TRACKED_TIMESERIES_ATTRS``) do not list.  Hub instruments are only
reachable through a binding named ``metrics`` (``probe.metrics``,
``self.probe.metrics``, a local ``metrics``), so the rule
keys on ``…metrics.<attr>.observe(...)`` / ``…metrics.<attr>.sample(...)``
call shapes; ``.observe``/``.sample`` on anything else (a local
histogram under construction, the dirty-page tracker) is out of scope.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.checkers.base import Checker
from repro.analysis.findings import Finding
from repro.analysis.project import FunctionScope, Project
from repro.obs.registry import (TRACKED_COUNTER_ATTRS,
                                TRACKED_HISTOGRAM_ATTRS,
                                TRACKED_TIMESERIES_ATTRS)

#: The union manifest OBS002 closes over: every sanctioned hub attr.
_TRACKED_INSTRUMENT_ATTRS = TRACKED_HISTOGRAM_ATTRS | TRACKED_TIMESERIES_ATTRS


def _base_name(node: ast.expr) -> Optional[str]:
    """The trailing identifier of a Name/Attribute chain, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


class ObservabilityChecker(Checker):
    RULES = {
        "OBS001": "ad-hoc public counter increment outside the metrics "
                  "registry manifest (invisible to snapshots/benchmarks)",
        "OBS002": "observation into a MetricsHub instrument outside the "
                  "histogram/time-series manifests (invisible to "
                  "snapshots/exporters)",
    }

    def check_function(self, scope: FunctionScope,
                       project: Project) -> Iterator[Finding]:
        yield from self._check_counters(scope)
        yield from self._check_instruments(scope)

    def _check_counters(self, scope: FunctionScope) -> Iterator[Finding]:
        for node in ast.walk(scope.node):
            if not isinstance(node, ast.AugAssign):
                continue
            if not isinstance(node.op, ast.Add):
                continue
            target = node.target
            if not (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                continue
            attr = target.attr
            if attr.startswith("_") or attr in TRACKED_COUNTER_ATTRS:
                continue
            yield self.found(
                scope, node, "OBS001",
                f"self.{attr} += ... is not in the metrics registry "
                f"manifest",
                "add the attribute to TRACKED_COUNTER_ATTRS and register "
                "a provider in repro.obs.registry, or rename it with a "
                "leading underscore if it is private state",
            )

    def _check_instruments(self, scope: FunctionScope) -> Iterator[Finding]:
        for node in ast.walk(scope.node):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("observe", "sample")):
                continue
            receiver = node.func.value
            if not isinstance(receiver, ast.Attribute):
                continue  # a local instrument, not a hub attribute
            if _base_name(receiver.value) != "metrics":
                continue  # tracker.observe(...), rng.sample(...), etc.
            attr = receiver.attr
            if attr.startswith("_") or attr in _TRACKED_INSTRUMENT_ATTRS:
                continue
            yield self.found(
                scope, node, "OBS002",
                f"metrics.{attr}.{node.func.attr}(...) is not in the "
                f"histogram/time-series manifests",
                "add the attribute to TRACKED_HISTOGRAM_ATTRS or "
                "TRACKED_TIMESERIES_ATTRS in repro.obs.registry (and a "
                "matching MetricsHub slot) so snapshots and exporters "
                "can see it",
            )
