"""Signature census: every public parameter and callable in ``src/`` has
a caller.

A defaulted parameter that no real caller passes is a knob nothing
turns: its value belongs in a constant next to its reader.  This test
resolves every call in the caller trees to the public function, method
or class it reaches and records which parameters the call passes, by
keyword or by positional slot.  A parameter no call passes fails the
test unless :data:`ALLOWED` names the test or document that sets it.

Calls resolve by callee, not by keyword name:

* a name or ``module.name`` follows the file's imports (relative ones
  too) and the packages' re-exports to one definition;
* ``self.m(...)`` and ``super().m(...)`` follow the enclosing class and
  its bases in ``src/``; ``TABLE.get(key)(...)`` or ``TABLE[key](...)``
  reaches every class in a module-level table such as ``SCHEMES``;
* any other ``x.m(...)`` reaches every public method called ``m`` whose
  signature accepts the call (the receiver's type is not known
  statically, so this over-credits);
* ``*args`` passes every positional slot from its position on;
  ``**kw`` passes the keys of a literal ``dict(...)``/``{...}`` and
  nothing else, except through a ``def f(..., **kw)`` in ``src/`` that
  hands ``**kw`` on, whose callers' extra keywords reach the inner call;
* a callable passed to a forwarder (``run_once(bench, fn, *a, **kw)``)
  receives the arguments after it.

A record (dataclass) field that holds state rather than configuration
is not a knob: one with a ``default_factory``, or one that ``src/``
assigns on another object or in the record's own methods.

Every public function, class and method (dunders and properties aside)
must also be *reached*: a call resolves to it, a name or attribute that
resolves to it is used as a value (a callback, a base class, a
``raise``/``except``/``isinstance`` target), or it overrides, or is
overridden by, a reached method of the same name.  ``__all__`` and
docstrings do not count.  An unreached callable fails the test unless
:data:`ALLOWED_CALLABLES` names the test that uses it and why.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional

import pytest

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
#: Trees whose code counts as a real caller.
CALLER_TREES = ("src", "benchmarks", "tools", "examples", "perfbench")

#: ``(callee, file): parameters`` that no real caller sets: the named test
#: or document does (the census checks that it does).  Each is a knob a
#: test turns to reach a case the defaults never produce.
ALLOWED = {
    # The one migration-level run of a multi-leaf layered bitmap; with no
    # memory send, a pre-harvest crash reaches the harvest check.
    ("repro.core.config.MigrationConfig",
     "tests/integration/test_stress.py"): ("leaf_bits",),
    ("repro.core.config.MigrationConfig",
     "tests/cluster/test_sharded_faults.py"): ("include_memory",),
    ("repro.cluster.sharded.build_sharded_cluster",
     "tests/cluster/test_sharded_faults.py"): ("config",),
    # The paper's future-work extension, shown in the API guide.
    ("repro.core.manager.Migrator", "docs/API_GUIDE.md"): ("multi_host_im",),
    # Recovery-stack thresholds and retry shapes the tests tighten.
    ("repro.cluster.testbed.build_cluster",
     "tests/cluster/test_recovery.py"): ("shed_threshold",),
    ("repro.cluster.scheduler.ClusterScheduler.submit",
     "tests/cluster/test_recovery.py"): ("deadline",),
    ("repro.cluster.health.HealthMonitor",
     "tests/cluster/test_health.py"): ("failure_threshold", "recovery_time"),
    ("repro.cluster.hostmanager.HostManager",
     "tests/cluster/test_health.py"): ("health",),
    ("repro.core.manager.RetryPolicy",
     "tests/faults/test_retry.py"): ("backoff_factor",),
    ("repro.cluster.chaos.ChaosConfig",
     "tests/cluster/test_chaos.py"): ("horizon", "nflaps", "npartitions"),
    # The fault plan's trigger vocabulary (at, phase, offset, direction)
    # is the same for every fault kind.
    ("repro.faults.injector.FaultInjector.on_phase",
     "tests/faults/test_trigger_independence.py"): ("at",),
    ("repro.faults.plan.FaultPlan.blackout",
     "tests/faults/test_injector.py"): ("direction",),
    ("repro.faults.plan.FaultPlan.crash",
     "tests/faults/test_retry.py"): ("offset", "phase"),
    ("repro.faults.plan.FaultPlan.degrade",
     "tests/faults/test_injector.py"): ("at", "direction", "offset", "phase"),
    ("repro.faults.plan.FaultPlan.degrade",
     "tests/faults/test_plan.py"): ("bandwidth_factor",),
    ("repro.faults.plan.FaultPlan.degrade",
     "docs/API_GUIDE.md"): ("extra_latency",),
    ("repro.faults.plan.FaultPlan.flap",
     "tests/faults/test_injector.py"): ("direction", "offset", "phase"),
    ("repro.faults.plan.FaultPlan.partition",
     "tests/faults/test_trigger_independence.py"): ("offset", "phase"),
    # Transfer-pipeline models at rates that make their costs visible.
    ("repro.net.compression.Compressor",
     "tests/net/test_compression.py"): ("compress_throughput",
                                        "decompress_throughput"),
    ("repro.net.delta.DeltaCache",
     "tests/net/test_delta.py"): ("delta_ratio", "encode_throughput"),
    ("repro.net.messages.ControlMsg",
     "tests/net/test_channel.py"): ("extra_nbytes",),
    ("repro.net.ratelimit.TokenBucket",
     "tests/net/test_ratelimit.py"): ("burst",),
    ("repro.baselines.delta.DeltaQueueMigration",
     "tests/baselines/test_baselines.py"): ("throttle_watermark",),
    ("repro.baselines.ondemand.availability",
     "tests/baselines/test_baselines.py"): ("machines",),
    # Durable-bitmap store geometry and damage.
    ("repro.persist.store.BitmapStore",
     "tests/persist/test_store.py"): ("flush_every", "snapshot_every",
                                      "storage", "region_bits"),
    ("repro.persist.store.BitmapStore.recover",
     "tests/persist/test_store.py"): ("layout", "leaf_bits"),
    ("repro.persist.store.StableStorage.corrupt_record",
     "tests/property/test_persist_props.py"): ("offset",),
    # Engine, storage and guest corners.
    ("repro.sim.engine.Environment",
     "tests/sim/test_engine.py"): ("initial_time",),
    ("repro.sim.engine.Environment.schedule",
     "tests/sim/test_engine.py"): ("delay",),
    ("repro.sim.resources.Resource.request",
     "tests/sim/test_resources.py"): ("priority",),
    ("repro.storage.vbd.GenerationClock",
     "tests/storage/test_vbd.py"): ("start",),
    ("repro.storage.vbd.VirtualBlockDevice.read_data",
     "tests/storage/test_vbd.py"): ("nblocks",),
    ("repro.storage.vbd.VirtualBlockDevice.write",
     "tests/storage/test_vbd.py"): ("payload",),
    ("repro.vm.host.Host.attach_domain",
     "tests/storage/test_guest_path.py"): ("tracking_op_overhead",),
    ("repro.workloads.base.IdleWorkload",
     "tests/workloads/test_workloads.py"): ("tick",),
    # Queries and output the tests narrow.
    ("repro.obs.metrics.MetricsRegistry.names",
     "tests/obs/test_metrics_registry.py"): ("prefix",),
    ("repro.obs.metrics.NullMetrics.names",
     "tests/obs/test_metrics_registry.py"): ("prefix",),
    ("repro.obs.tracer.Tracer.find", "tests/obs/test_tracer.py"): ("name",),
    ("repro.obs.tracer.NullTracer.find",
     "tests/obs/test_tracer.py"): ("name",),
    ("repro.analysis.plotting.ascii_timeseries",
     "tests/analysis/test_plotting.py"): ("xlabel", "ylabel"),
    ("repro.cli.main", "tests/test_cli.py"): ("argv",),
}

#: ``(callable, file): reason`` for public callables no real caller
#: reaches: the named test uses each (the census checks that it does).
#: The reasons: (a) a reference implementation a test compares against;
#: (b) a fault or corruption seam of a safety test; (c) a read-only query
#: a correctness test asserts through, whose fact no public behaviour
#: shows; (d) perfbench reads what it builds, so it stays until the
#: benchmark itself changes.
ALLOWED_CALLABLES = {
    ("repro.sim.engine.Environment.step",
     "tests/sim/test_inline_dispatch.py"): "a",
    ("repro.persist.store.StableStorage.corrupt_area",
     "tests/persist/test_store.py"): "b",
    ("repro.persist.store.StableStorage.corrupt_record",
     "tests/property/test_persist_props.py"): "b",
    ("repro.cluster.health.HealthMonitor.state_of",
     "tests/cluster/test_health.py"): "c",
    ("repro.core.manager.Migrator.has_partial_copy",
     "tests/faults/test_retry.py"): "c",
    ("repro.core.manager.Migrator.has_stale_copy",
     "tests/core/test_manager_im.py"): "c",
    ("repro.persist.store.BitmapStore.pending_indices",
     "tests/persist/test_store.py"): "c",
    ("repro.storage.vbd.VirtualBlockDevice.read_data",
     "tests/core/test_tpm.py"): "c",
    # perfbench's chaos workload reads ``plan.degradations``.
    ("repro.faults.plan.FaultPlan.degrade",
     "tests/faults/test_plan.py"): "d",
}

# ---------------------------------------------------------------------------
# Definitions
# ---------------------------------------------------------------------------


@dataclass
class Signature:
    """A public callable: its positional slots and defaulted parameters."""

    qualname: str
    positional: list[str]
    keywords: set[str]
    defaulted: list[str]
    varargs: bool = False
    varkw: bool = False
    #: Record fields that are state, not knobs (see ``_dataclass_signature``).
    state: set[str] = field(default_factory=set)

    def accepts(self, nargs: int, names: Iterable[str],
                starred: bool) -> bool:
        """Whether a call with ``nargs`` positionals and these keywords
        could reach this signature."""
        names = set(names)
        if nargs > len(self.positional) and not self.varargs:
            return False
        if not (self.varkw or names <= self.keywords):
            return False
        required = [p for p in self.positional if p not in self.defaulted]
        return starred or all(p in names for p in required[nargs:])


@dataclass
class ClassInfo:
    qualname: str
    module: str
    node: ast.ClassDef
    methods: dict[str, ast.FunctionDef] = field(default_factory=dict)
    bases: list[str] = field(default_factory=list)


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _decorators(node) -> set[str]:
    names = set()
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Attribute):
            names.add(target.attr)
        elif isinstance(target, ast.Name):
            names.add(target.id)
    return names


def _function_signature(qualname: str, node, bound: bool) -> Signature:
    args = node.args
    params = args.posonlyargs + args.args
    if bound and params:
        params = params[1:]
    ndefaults = len(args.defaults)
    defaulted = [a.arg for a in params[len(params) - ndefaults:]] \
        if ndefaults else []
    defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                  if d is not None]
    return Signature(
        qualname, positional=[a.arg for a in params],
        keywords={a.arg for a in args.args + args.kwonlyargs},
        defaulted=defaulted, varargs=args.vararg is not None,
        varkw=args.kwarg is not None)


def _field_has_default(value: Optional[ast.expr]) -> Optional[bool]:
    """True/False for an ``__init__`` field; None for ``init=False``."""
    if value is None:
        return False
    if isinstance(value, ast.Call) and getattr(value.func, "id", "") == "field":
        kws = {kw.arg: kw.value for kw in value.keywords}
        init = kws.get("init")
        if isinstance(init, ast.Constant) and init.value is False:
            return None
        return "default" in kws or "default_factory" in kws
    return True


class Index:
    """Every public definition in ``src/`` and each module's namespace."""

    def __init__(self):
        self.namespaces: dict[str, dict[str, str]] = {}
        self.functions: dict[str, Signature] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.methods_by_name: dict[str, list[Signature]] = {}
        assigns = []
        #: ``def f(..., **kw)`` -> (module, class, its parameter names, the
        #: calls in it that pass ``**kw`` on).
        self.wrappers: dict[str, tuple] = {}
        #: Attribute names ``src/`` assigns on another object
        #: (``x.name = ...``, ``x`` not ``self``).
        self.stored: set[str] = set()
        for path in sorted((SRC / "repro").rglob("*.py")):
            module = _module_name(path)
            tree = ast.parse(path.read_text(), str(path))
            self.namespaces[module] = namespace(tree, module,
                                                path.name == "__init__.py")
            for node in ast.walk(tree):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target]
                           if isinstance(node, (ast.AugAssign, ast.AnnAssign))
                           else [])
                self.stored.update(
                    t.attr for t in targets if isinstance(t, ast.Attribute)
                    and getattr(t.value, "id", "") != "self")
            for node in tree.body:
                self._note_wrappers(node, module, None)
                if isinstance(node, ast.ClassDef):
                    for item in node.body:
                        self._note_wrappers(item, module,
                                            f"{module}.{node.name}")
                if isinstance(node, (ast.Assign, ast.AnnAssign)) \
                        and node.value is not None:
                    assigns.append((module, node))
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = f"{module}.{node.name}"
                    self.namespaces[module][node.name] = qual
                    if _is_public(node.name):
                        self.functions[qual] = _function_signature(
                            qual, node, bound=False)
                elif isinstance(node, ast.ClassDef):
                    qual = f"{module}.{node.name}"
                    self.namespaces[module][node.name] = qual
                    info = ClassInfo(qual, module, node)
                    for item in node.body:
                        if isinstance(item, (ast.FunctionDef,
                                             ast.AsyncFunctionDef)):
                            info.methods[item.name] = item
                    self.classes[qual] = info
        #: Module-level collections of classes, such as ``SCHEMES``.
        self.tables: dict[str, list[str]] = {}
        for module, assign in assigns:
            if not isinstance(assign.value, (ast.Dict, ast.DictComp,
                                             ast.Tuple, ast.List)):
                continue
            members = [self.resolve_expr(n, module)
                       for n in ast.walk(assign.value)
                       if isinstance(n, ast.Name)]
            members = [m for m in members if m in self.classes]
            targets = (assign.targets if isinstance(assign, ast.Assign)
                       else [assign.target])
            for target in targets:
                if members and isinstance(target, ast.Name):
                    self.tables[f"{module}.{target.id}"] = members
        for info in self.classes.values():
            for base in info.node.bases:
                target = self.resolve_expr(base, info.module)
                if target in self.classes:
                    info.bases.append(target)
        for qual, info in self.classes.items():
            if not _is_public(info.node.name):
                continue
            ctor = self.constructor(qual)
            if ctor is not None:
                self.functions[qual] = ctor
            for name, node in info.methods.items():
                if not _is_public(name) or "property" in _decorators(node) \
                        or "setter" in _decorators(node):
                    continue
                bound = "staticmethod" not in _decorators(node)
                sig = _function_signature(f"{qual}.{name}", node, bound)
                self.functions[sig.qualname] = sig
                self.methods_by_name.setdefault(name, []).append(sig)

    def _note_wrappers(self, node, module: str, cls: Optional[str]) -> None:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                or node.args.kwarg is None:
            return
        kwarg = node.args.kwarg.arg
        calls = [call for call in ast.walk(node)
                 if isinstance(call, ast.Call) and any(
                     kw.arg is None and getattr(kw.value, "id", "") == kwarg
                     for kw in call.keywords)]
        if calls:
            args = node.args
            own = {a.arg for a in args.posonlyargs + args.args
                   + args.kwonlyargs}
            self.wrappers[f"{cls or module}.{node.name}"] = (
                module, cls, own, calls)

    # -- resolution ---------------------------------------------------------

    def resolve(self, dotted: str) -> Optional[str]:
        """The definition or module a dotted name reaches, if any."""
        if dotted in self.functions or dotted in self.classes \
                or dotted in self.namespaces or dotted in self.tables:
            return dotted
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            head, rest = ".".join(parts[:cut]), parts[cut:]
            if head in self.namespaces:
                local = f"{head}.{rest[0]}"
                target = self.namespaces[head].get(rest[0], local)
                if target == local:
                    return local if local in self.tables else None
                return self.resolve(".".join([target, *rest[1:]]))
            if head in self.classes:
                method = self.find_method(head, rest[0])
                return method if len(rest) == 1 else None
        return None

    def resolve_expr(self, expr: ast.expr, module: str,
                     names: Optional[dict[str, str]] = None) -> Optional[str]:
        dotted = _dotted(expr)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        scope = names if names is not None else self.namespaces.get(module, {})
        if head in scope:
            return self.resolve(scope[head] + ("." + rest if rest else ""))
        return self.resolve(f"{module}.{dotted}") if module else None

    def is_method(self, qual: Optional[str]) -> bool:
        cls, _, name = (qual or "").rpartition(".")
        return cls in self.classes and name in self.classes[cls].methods

    def mro(self, qual: str) -> list[str]:
        order, todo = [], [qual]
        while todo:
            current = todo.pop(0)
            if current not in order:
                order.append(current)
                todo.extend(self.classes[current].bases)
        return order

    def find_method(self, cls: str, name: str) -> Optional[str]:
        for klass in self.mro(cls):
            if name in self.classes[klass].methods:
                return f"{klass}.{name}"
        return None

    def constructor(self, qual: str) -> Optional[Signature]:
        for klass in self.mro(qual):
            info = self.classes[klass]
            if "__init__" in info.methods:
                return _function_signature(qual, info.methods["__init__"],
                                           bound=True)
            if "dataclass" in _decorators(info.node) or any(
                    getattr(b, "id", "") == "NamedTuple"
                    for b in info.node.bases):
                return self._dataclass_signature(qual)
        return None

    def _dataclass_signature(self, qual: str) -> Signature:
        """A record's ``__init__``.  A field with a ``default_factory``, or
        one that ``src/`` assigns after construction, is state the record
        accumulates, not a knob: it counts as defaulted but not settable."""
        fields: dict[str, bool] = {}
        state: set[str] = set()
        for klass in reversed(self.mro(qual)):
            node = self.classes[klass].node
            own = {t.attr for n in ast.walk(node)
                   for t in getattr(n, "targets", [getattr(n, "target", None)])
                   if isinstance(t, ast.Attribute)}
            for item in node.body:
                if not isinstance(item, ast.AnnAssign) or not isinstance(
                        item.target, ast.Name):
                    continue
                if "ClassVar" in ast.unparse(item.annotation):
                    continue
                name, value = item.target.id, item.value
                has_default = _field_has_default(value)
                if has_default is None:
                    continue
                fields[name] = has_default
                if name in self.stored | own or "default_factory" in {
                        kw.arg for kw in getattr(value, "keywords", ())}:
                    state.add(name)
        return Signature(qual, positional=list(fields), keywords=set(fields),
                         defaulted=[n for n, d in fields.items() if d],
                         state=state)


def _dotted(expr: ast.expr) -> Optional[str]:
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        inner = _dotted(expr.value)
        return None if inner is None else f"{inner}.{expr.attr}"
    return None


def _dict_keys(expr: ast.expr) -> Optional[set[str]]:
    """The keys of a ``dict(k=...)`` or ``{"k": ...}`` expression (either
    branch of a conditional), or None when they are not all literal."""
    if isinstance(expr, ast.IfExp):
        body, orelse = _dict_keys(expr.body), _dict_keys(expr.orelse)
        return None if body is None or orelse is None else body | orelse
    if isinstance(expr, ast.Call) and getattr(expr.func, "id", "") == "dict" \
            and not expr.args and all(kw.arg for kw in expr.keywords):
        return {kw.arg for kw in expr.keywords}
    if isinstance(expr, ast.Dict) and all(
            isinstance(k, ast.Constant) and isinstance(k.value, str)
            for k in expr.keys):
        return {k.value for k in expr.keys}
    return None


def namespace(tree: ast.AST, module: Optional[str],
              package: bool = False) -> dict[str, str]:
    """Local name -> dotted target for every import in ``tree``."""
    names: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    names[alias.asname] = alias.name
                else:
                    top = alias.name.split(".")[0]
                    names[top] = top
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                if module is None:
                    continue
                parts = module.split(".")
                keep = len(parts) - node.level + (1 if package else 0)
                base = ".".join(parts[:keep] + ([base] if base else []))
            for alias in node.names:
                names[alias.asname or alias.name] = f"{base}.{alias.name}"
    return names


# ---------------------------------------------------------------------------
# Calls
# ---------------------------------------------------------------------------


class CallCensus(ast.NodeVisitor):
    """Records ``(callee, parameter)`` for every parameter a call passes."""

    def __init__(self, index: Index, module: Optional[str], tree: ast.AST):
        self.index = index
        self.module = module
        self.names = (index.namespaces[module] if module
                      else namespace(tree, None))
        #: Local names bound to a lookup in a class table.
        self.locals: dict[str, list[str]] = {}
        #: Local names bound to a dict whose keys are all literal.
        self.kwdicts: dict[str, set[str]] = {}
        self.classes: list[Optional[str]] = []
        self.passed: set[tuple[str, str]] = set()
        #: Public callables a call or a value use reaches.
        self.reached: set[str] = set()
        #: ``func`` nodes of calls, which the call rule resolves.
        self._callees: set[int] = set()

    def visit_ClassDef(self, node):
        qual = f"{self.module}.{node.name}" if self.module else None
        self.classes.append(qual if qual in self.index.classes else None)
        self.generic_visit(node)
        self.classes.pop()

    def visit_Assign(self, node):
        self.generic_visit(node)
        classes = self._table_lookup(node.value)
        keys = _dict_keys(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                self.locals.pop(target.id, None)
                self.kwdicts.pop(target.id, None)
                if classes:
                    self.locals[target.id] = classes
                if keys is not None:
                    self.kwdicts[target.id] = keys

    def _table_lookup(self, expr: ast.expr) -> list[str]:
        """The classes ``TABLE[key]`` or ``TABLE.get(key)`` may yield."""
        if isinstance(expr, ast.Subscript):
            table = expr.value
        elif isinstance(expr, ast.Call) and isinstance(
                expr.func, ast.Attribute) and expr.func.attr == "get":
            table = expr.func.value
        else:
            return []
        target = self.index.resolve_expr(table, self.module, self.names)
        return self.index.tables.get(target, [])

    # -- value uses: a callback, a base, a ``raise``/``except`` target --------

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load) and id(node) not in self._callees:
            self._reach(self.index.resolve_expr(node, self.module, self.names))

    def visit_Attribute(self, node):
        self.generic_visit(node)
        if not isinstance(node.ctx, ast.Load) or id(node) in self._callees:
            return
        target = (self.index.resolve_expr(node, self.module, self.names)
                  or self._self_or_super(node))
        receiver = node.value
        if target is not None:
            self._reach(target)
        elif self.index.resolve_expr(receiver, self.module, self.names) \
                is None and not (self.classes and self.classes[-1] and getattr(
                    receiver, "id", "") in ("self", "cls")):
            # ``x.m`` on a receiver of unknown type may be any ``m``.
            self.reached.update(sig.qualname for sig in
                                self.index.methods_by_name.get(node.attr, ()))

    def _reach(self, target: Optional[str]) -> None:
        """Record a definition, private classes' methods included (an
        override of one is reached through it)."""
        if target in self.index.functions or target in self.index.classes \
                or self.index.is_method(target):
            self.reached.add(target)

    # An annotation names a type; it does not use it.

    def visit_arg(self, node):
        pass

    def visit_FunctionDef(self, node):
        for child in (*node.decorator_list, node.args, *node.body):
            self.visit(child)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_AnnAssign(self, node):
        self.visit(node.target)
        if node.value is not None:
            self.visit(node.value)

    def visit_Call(self, node):
        self._callees.add(id(node.func))
        self.generic_visit(node)
        self._call(node)
        # A callable handed to a forwarder (``run_once(bench, fn, *a, **kw)``,
        # ``partial(fn, ...)``) receives the arguments after it.
        for i, arg in enumerate(node.args):
            forwarded = self.index.resolve_expr(arg, self.module, self.names)
            if forwarded in self.index.functions:
                self._record(self.index.functions[forwarded], ast.Call(
                    func=arg, args=node.args[i + 1:],
                    keywords=node.keywords), 0)

    def _call(self, node: ast.Call) -> None:
        """Record what ``node`` passes to every callee it may reach."""
        func = node.func
        callees: list[tuple[Signature, int]] = []
        classes = (self.locals.get(func.id, []) if isinstance(func, ast.Name)
                   else self._table_lookup(func))
        for cls in classes:
            if cls in self.index.functions:
                self._record(self.index.functions[cls], node, 0)
        target = self.index.resolve_expr(func, self.module, self.names)
        if target is None and isinstance(func, ast.Attribute):
            target = self._self_or_super(func)
        self._reach(target)
        if target in self.index.wrappers:
            self._forward(target, node)
        if target in self.index.functions:
            # An unbound method called on its class takes ``self`` first.
            shift = int(isinstance(func, ast.Attribute)
                        and target.rsplit(".", 1)[0] in self.index.classes
                        and target not in self.index.classes
                        and self.index.resolve_expr(
                            func.value, self.module, self.names)
                        in self.index.classes
                        and not self._is_static(target))
            callees.append((self.index.functions[target], shift))
        elif target is None and isinstance(func, ast.Attribute):
            nargs = sum(not isinstance(a, ast.Starred) for a in node.args)
            names = [kw.arg for kw in node.keywords if kw.arg]
            starred = nargs < len(node.args) or len(names) < len(node.keywords)
            callees.extend(
                (sig, 0) for sig in self.index.methods_by_name.get(func.attr, ())
                if sig.accepts(nargs, names, starred))
        for sig, shift in callees:
            self._record(sig, node, shift)

    def _forward(self, wrapper: str, node: ast.Call) -> None:
        """Pass the keywords a ``def f(..., **kw)`` does not name on to the
        calls inside it that take ``**kw``."""
        module, cls, own, inner_calls = self.index.wrappers[wrapper]
        extra = [kw for kw in node.keywords if kw.arg and kw.arg not in own]
        inner = CallCensus(self.index, module, None)
        inner.classes.append(cls)
        for call in inner_calls:
            inner._call(ast.Call(
                func=call.func, args=call.args,
                keywords=[kw for kw in call.keywords if kw.arg] + extra))
        self.passed |= inner.passed
        self.reached |= inner.reached

    def _is_static(self, qual: str) -> bool:
        cls, name = qual.rsplit(".", 1)
        return "staticmethod" in _decorators(self.index.classes[cls].methods[name])

    def _self_or_super(self, func: ast.Attribute) -> Optional[str]:
        cls = self.classes[-1] if self.classes else None
        if cls is None:
            return None
        receiver = func.value
        if isinstance(receiver, ast.Name) and receiver.id in ("self", "cls"):
            return self.index.find_method(cls, func.attr)
        if isinstance(receiver, ast.Call) and getattr(
                receiver.func, "id", "") == "super":
            for base in self.index.mro(cls)[1:]:
                if func.attr == "__init__":
                    if base in self.index.functions:
                        return base
                else:
                    found = self.index.find_method(base, func.attr)
                    if found:
                        return found
        return None

    def _record(self, sig: Signature, node: ast.Call, shift: int):
        self.reached.add(sig.qualname)
        slots, passed = sig.positional, set()
        for i, arg in enumerate(node.args[shift:] if shift else node.args):
            if isinstance(arg, ast.Starred):
                passed.update(slots[i:])
                break
            if i < len(slots):
                passed.add(slots[i])
        for kw in node.keywords:
            if kw.arg is None:
                keys = _dict_keys(kw.value)
                if keys is None and isinstance(kw.value, ast.Name):
                    keys = self.kwdicts.get(kw.value.id)
                passed.update(keys or ())
            else:
                passed.add(kw.arg)
        self.passed.update((sig.qualname, p) for p in passed)
        # ``record.replace(field=...)`` sets the record's field.
        owner, _, method = sig.qualname.rpartition(".")
        if method == "replace" and sig.varkw and owner in self.index.functions:
            self.passed.update((owner, p) for p in passed)


def python_sources(path: Path) -> list[str]:
    """A ``.py`` file's text, or a Markdown file's ``python`` blocks."""
    text = path.read_text()
    if path.suffix == ".md":
        return re.findall(r"```python\n(.*?)```", text, re.S)
    return [text]


def survey(index: Index, source: str,
           module: Optional[str] = None) -> CallCensus:
    """The calls and value uses in ``source``; ``module`` names the
    ``src/`` module the source is."""
    tree = ast.parse(source)
    visitor = CallCensus(index, module, tree)
    visitor.visit(tree)
    return visitor


def passed_in(index: Index, source: str,
              module: Optional[str] = None) -> set[tuple[str, str]]:
    """``(callee, parameter)`` for every parameter a call in ``source``
    passes."""
    return survey(index, source, module).passed


def census(index: Index,
           paths: Iterable[Path]) -> tuple[set[tuple[str, str]], set[str]]:
    """The parameters passed by every call in ``paths``, and the callables
    those calls and value uses reach (overrides included)."""
    passed, reached = set(), set()
    for path in paths:
        module = _module_name(path) if path.is_relative_to(SRC) else None
        for source in python_sources(path):
            visitor = survey(index, source, module)
            passed |= visitor.passed
            reached |= visitor.reached
    return passed, with_overrides(index, reached)


def with_overrides(index: Index, reached: set[str]) -> set[str]:
    """``reached`` plus every method that overrides a reached method of the
    same name, or that a reached method overrides."""
    reached = set(reached)
    pairs = [(f"{cls}.{name}", f"{base}.{name}")
             for cls, info in index.classes.items()
             for base in index.mro(cls)[1:]
             for name in info.methods.keys() & index.classes[base].methods.keys()]
    grew = True
    while grew:
        grew = False
        for a, b in pairs:
            if (a in reached) != (b in reached):
                reached |= {a, b}
                grew = True
    return reached


def public_callables(index: Index) -> set[str]:
    """Every public function, class and method (not dunders or properties)."""
    return set(index.functions) | {
        qual for qual, info in index.classes.items()
        if _is_public(info.node.name)}


def unset_parameters(index: Index, passed: set[tuple[str, str]]) -> set:
    """Defaulted parameters of public callables no call passes."""
    return {(sig.qualname, name)
            for sig in index.functions.values()
            for name in sig.defaulted
            if name not in sig.state and (sig.qualname, name) not in passed}


def allowed() -> dict[tuple[str, str], str]:
    """:data:`ALLOWED` as ``(callee, parameter) -> file``."""
    return {(callee, name): path
            for (callee, path), names in ALLOWED.items()
            for name in names}


@pytest.fixture(scope="module")
def index():
    return Index()


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


class TestEveryParameterHasACaller:
    def test_every_parameter_is_set_outside_tests(self, index):
        callers = [path for tree in CALLER_TREES
                   for path in sorted((REPO / tree).rglob("*.py"))]
        passed, _reached = census(index, callers)
        unset = unset_parameters(index, passed)
        assert sorted(unset - set(allowed())) == []
        # An entry a real caller now sets is stale.
        assert sorted(set(allowed()) - unset) == []

    def test_each_allowed_parameter_is_set_where_named(self, index):
        for (callee, name), path in sorted(allowed().items()):
            passed, _reached = census(index, [REPO / path])
            assert (callee, name) in passed, \
                f"{path} does not set {callee}({name}=)"


def caller_paths() -> list[Path]:
    return [path for tree in CALLER_TREES
            for path in sorted((REPO / tree).rglob("*.py"))]


class TestEveryCallableIsReached:
    def test_every_callable_is_reached_outside_tests(self, index):
        _passed, reached = census(index, caller_paths())
        unreached = public_callables(index) - reached
        allowed_names = {name for name, _path in ALLOWED_CALLABLES}
        assert sorted(unreached - allowed_names) == []
        # An entry a real caller now reaches is stale.
        assert sorted(allowed_names - unreached) == []

    def test_each_allowed_callable_is_used_where_named(self, index):
        for (name, path), reason in sorted(ALLOWED_CALLABLES.items()):
            assert reason in "abcd" and len(reason) == 1
            _passed, reached = census(index, [REPO / path])
            assert name in reached, f"{path} does not use {name}"


class TestResolution:
    """The census matches by callee and slot, not by keyword name."""

    def test_keyword_reaches_only_the_imported_callee(self, index):
        passed = passed_in(index, (
            "from repro.analysis.experiments import build_testbed\n"
            "build_testbed('idle', link_bandwidth=1e9)\n"))
        assert passed == {
            ("repro.analysis.experiments.build_testbed", "workload"),
            ("repro.analysis.experiments.build_testbed", "link_bandwidth")}

    def test_positional_argument_fills_its_slot(self, index):
        passed = passed_in(index, "bed.run_for(5.0)\n")
        assert ("repro.analysis.experiments.Testbed.run_for",
                "seconds") in passed

    def test_re_export_and_class_table_resolve(self, index):
        passed = passed_in(index, (
            "from repro.core import SCHEMES, MigrationConfig as C\n"
            "cls = SCHEMES.get('tpm')\n"
            "cls(env, dom, src, dst, fwd, rev, C(rate_limit=1.0))\n"))
        assert ("repro.core.config.MigrationConfig", "rate_limit") in passed
        assert ("repro.core.tpm.ThreePhaseMigration", "config") in passed

    def test_literal_kwargs_pass_only_their_keys(self, index):
        passed = passed_in(index, (
            "from repro.cluster import build_cluster\n"
            "extra = dict(health=True)\n"
            "build_cluster(**extra)\n"))
        assert passed == {("repro.cluster.testbed.build_cluster", "health")}


class TestReach:
    """A callable is reached by a call, a value use or an override."""

    def reached(self, index, source):
        return with_overrides(index, survey(index, source).reached)

    def test_call_reaches_the_callee(self, index):
        assert "repro.analysis.experiments.build_testbed" in self.reached(
            index, "from repro.analysis import build_testbed\n"
                   "build_testbed('idle')\n")

    def test_callback_and_base_are_value_uses(self, index):
        reached = self.reached(index, (
            "from repro.core import Migrator\n"
            "from repro.workloads import Workload\n"
            "class Mine(Workload):\n    pass\n"
            "hooks.append(Migrator.migrate_process)\n"))
        assert {"repro.workloads.base.Workload",
                "repro.core.manager.Migrator.migrate_process"} <= reached

    def test_raise_and_except_targets_are_value_uses(self, index):
        reached = self.reached(index, (
            "from repro.errors import FaultError, NoValidHost\n"
            "try:\n    raise FaultError('x')\n"
            "except NoValidHost:\n    pass\n"))
        assert {"repro.errors.FaultError", "repro.errors.NoValidHost"} \
            <= reached

    def test_annotation_and_all_do_not_reach(self, index):
        reached = self.reached(index, (
            "from repro.errors import FaultError\n"
            "__all__ = ['FaultError']\n"
            "def f(x: FaultError) -> None:\n    pass\n"))
        assert "repro.errors.FaultError" not in reached

    def test_override_of_a_reached_method_is_reached(self, index):
        reached = self.reached(index, (
            "from repro.workloads import AddressModel\n"
            "AddressModel.next_extent(model, rng)\n"))
        assert "repro.workloads.iomodel.UniformModel.next_extent" in reached
