"""Layering rules: the storage stack stays behind its builder and the
subsystem dependency arrows point one way.

These encode the contracts ``docs/ARCHITECTURE.md`` states in prose
(and ``tests/test_repo_consistency.py`` used to enforce by grep):

* ``layering-middleware-construction`` — device middleware and the
  simulated disk are wired exclusively by :class:`DeviceStack` /
  :class:`StorageSpec`; nothing else hand-builds a layer, so every
  stack in the system is order-validated and reproducible from a spec.
* ``layering-import-boundary`` — acquisition and sensor code never
  imports storage (data reaches disk through the facade), and the
  off-line query layer never imports the online layer (online builds
  *on* query, not the reverse).
* ``layering-codec-containment`` — CRC framing is
  :class:`CrcFramedDevice`'s business; consumers above the stack see
  payload dictionaries, never byte frames.
* ``layering-cluster-boundary`` — the cluster tier's frontends stay
  stateless *by construction*: engines, query/ingest services and
  backend nodes are built only inside :mod:`repro.cluster.backend` and
  the facade, never in :mod:`repro.cluster.frontend` (or the ring) —
  so any frontend can be added or killed without touching data.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.engine import BaseRule, FileContext, Finding, register

__all__ = [
    "ClusterBoundaryRule",
    "CodecContainmentRule",
    "ImportBoundaryRule",
    "MiddlewareConstructionRule",
]

#: Constructors only the device-stack modules may call.
MIDDLEWARE_CONSTRUCTORS = frozenset(
    {
        "SimulatedDisk",
        "CachingDevice",
        "CrcFramedDevice",
        "MeteredDevice",
        "ResilientDevice",
        "FaultyDevice",
        "ShardedDevice",
        "ReplicatedDevice",
    }
)

#: Modules that implement the stack and therefore construct layers.
DEVICE_MODULES = frozenset(
    {
        "repro.storage.device",
        "repro.storage.sharding",
        "repro.storage.replication",
        "repro.faults.plan",
    }
)

#: Stateful data-path constructors the cluster tier may only wire in
#: its data-owning backend module (and that the facade composes).
STATEFUL_CONSTRUCTORS = frozenset(
    {
        "ProPolyneEngine",
        "QueryService",
        "IngestService",
        "BatchInserter",
        "TensorBlockStore",
        "BackendNode",
    }
)

#: Cluster modules that must stay stateless: routing and quota logic
#: only, no engines, services or backend construction.
STATELESS_CLUSTER_MODULES = frozenset(
    {
        "repro.cluster.frontend",
        "repro.cluster.ring",
    }
)

#: Modules allowed to construct BackendNode instances: the tier's own
#: package surface and the facade that exposes ``AIMS.cluster()``
#: (the CLI goes through the facade).
BACKEND_BUILDERS = frozenset(
    {
        "repro.cluster",
        "repro.cluster.backend",
        "repro.core.aims",
    }
)

#: (importing package, forbidden import prefix, why).
IMPORT_BOUNDARIES = (
    (
        "repro.acquisition",
        "repro.storage",
        "acquisition hands samples to the facade; it never touches "
        "storage directly",
    ),
    (
        "repro.sensors",
        "repro.storage",
        "sensor simulators produce streams; persistence is the "
        "facade's job",
    ),
    (
        "repro.query",
        "repro.online",
        "the online layer builds on query, never the reverse",
    ),
)


def _call_name(node: ast.Call) -> str | None:
    """The terminal name of a call target (``Foo(...)`` / ``m.Foo(...)``)."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _dotted(node: ast.expr) -> str | None:
    """Render an ``a.b.c`` attribute chain as a dotted string."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _matches(name: str | None, prefix: str) -> bool:
    return name is not None and (
        name == prefix or name.startswith(prefix + ".")
    )


@register
class MiddlewareConstructionRule(BaseRule):
    rule_id = "layering-middleware-construction"
    severity = "error"
    description = (
        "storage middleware and the simulated disk are constructed only "
        "by the DeviceStack/StorageSpec builder modules"
    )

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        """Yield every violation of this rule in one file."""
        if not ctx.in_package("repro") or ctx.module in DEVICE_MODULES:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node)
            if name in MIDDLEWARE_CONSTRUCTORS:
                yield self.finding(
                    ctx,
                    node,
                    f"{name} constructed outside the device-stack "
                    f"builder; declare a StorageSpec (or extend "
                    f"DeviceStack) instead",
                )


@register
class ImportBoundaryRule(BaseRule):
    rule_id = "layering-import-boundary"
    severity = "error"
    description = (
        "subsystem dependency arrows point one way: acquisition/sensors "
        "never import storage, query never imports online"
    )

    def _imports(self, tree: ast.AST):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield node, alias.name
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module:
                    yield node, node.module

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        """Yield every violation of this rule in one file."""
        for package, forbidden, why in IMPORT_BOUNDARIES:
            if not ctx.in_package(package):
                continue
            for node, target in self._imports(ctx.tree):
                if _matches(target, forbidden):
                    yield self.finding(
                        ctx,
                        node,
                        f"{ctx.module} imports {target}: {why}",
                    )


@register
class ClusterBoundaryRule(BaseRule):
    rule_id = "layering-cluster-boundary"
    severity = "error"
    description = (
        "cluster frontends stay stateless by construction: engines, "
        "query/ingest services and BackendNodes are built only in "
        "repro.cluster.backend and the facade"
    )

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        """Yield every violation of this rule in one file."""
        if not ctx.in_package("repro"):
            return
        stateless = ctx.module in STATELESS_CLUSTER_MODULES
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node)
            if name == "BackendNode":
                if ctx.module not in BACKEND_BUILDERS:
                    yield self.finding(
                        ctx,
                        node,
                        f"BackendNode constructed in {ctx.module}; "
                        f"backends are built by repro.cluster.backend "
                        f"or the AIMS facade",
                    )
            elif stateless and name in STATEFUL_CONSTRUCTORS:
                yield self.finding(
                    ctx,
                    node,
                    f"{name} constructed in stateless cluster module "
                    f"{ctx.module}; all data-owning state lives in "
                    f"repro.cluster.backend",
                )


@register
class CodecContainmentRule(BaseRule):
    rule_id = "layering-codec-containment"
    severity = "error"
    description = (
        "CRC block framing (repro.storage.codec) is used only inside "
        "the device stack; consumers see payload dictionaries"
    )

    ALLOWED = DEVICE_MODULES | {"repro.storage.codec"}

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        """Yield every violation of this rule in one file."""
        if not ctx.in_package("repro") or ctx.module in self.ALLOWED:
            return
        for node in ast.walk(ctx.tree):
            target: str | None = None
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if _matches(alias.name, "repro.storage.codec"):
                        target = alias.name
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if _matches(node.module, "repro.storage.codec"):
                    target = node.module
            elif isinstance(node, ast.Attribute):
                if _dotted(node) == "repro.storage.codec":
                    target = "repro.storage.codec"
            if target is not None:
                yield self.finding(
                    ctx,
                    node,
                    f"{ctx.module} reaches into {target}; framing "
                    f"belongs to CrcFramedDevice",
                )
