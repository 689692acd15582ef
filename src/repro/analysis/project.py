"""Source loading and shared AST facts for the protocol linter.

The linter runs in two passes.  Pass one (here) parses every module
under the scanned roots and collects *project-wide* facts that the
checkers need to reason across function and module boundaries:

* which module aliases name the stdlib ``random``/``time``/``datetime``
  modules in each file (so ``self._rng.random()`` is never confused
  with ``random.random()``);
* the *force set* — every function that forces the stable log, directly
  or by (transitively) calling another function that does.  Ordering
  checks accept "calls a force-set function" wherever a literal
  ``.force(...)`` would do;
* the RPC name registry — every string registered with a dispatcher
  and every name invoked through a stub, for the hygiene checks.

Pass two hands each checker one :class:`FunctionScope` at a time.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

TRACKED_MODULES = ("random", "time", "datetime")

#: Inline suppression: ``# lint: allow[REC001,WAL100] offline format``.
#: The comment suppresses the named rules on its own line and, when it
#: stands alone, on the line below; on a ``def`` line it sanctions the
#: whole scope for interprocedural summary purposes.
ALLOW_COMMENT = re.compile(r"#\s*lint:\s*allow\[([A-Z0-9_, ]+)\]")


def dotted_name(node: ast.AST) -> Optional[str]:
    """Render ``a.b.c`` attribute chains; None for anything fancier."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_name(call: ast.Call) -> Optional[str]:
    """The bare callee name: ``self.pool.fix(...)`` -> ``fix``."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def call_receiver(call: ast.Call) -> Optional[str]:
    """The dotted receiver: ``self.pool.fix(...)`` -> ``self.pool``."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return dotted_name(func.value)
    return None


def string_args(call: ast.Call) -> List[str]:
    """Every positional/keyword string-literal argument of a call."""
    out: List[str] = []
    for arg in list(call.args) + [kw.value for kw in call.keywords]:
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            out.append(arg.value)
    return out


@dataclass
class FunctionScope:
    """One function (or method) plus everything checkers ask about it."""

    qualname: str                    #: e.g. "Server.bootstrap"
    node: ast.AST                    #: FunctionDef / AsyncFunctionDef
    module: "Module"

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]

    @property
    def params(self) -> Set[str]:
        args = self.node.args  # type: ignore[attr-defined]
        names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
        if args.vararg:
            names.add(args.vararg.arg)
        if args.kwarg:
            names.add(args.kwarg.arg)
        return names

    def calls(self) -> Iterator[ast.Call]:
        for sub in ast.walk(self.node):
            if isinstance(sub, ast.Call):
                yield sub


@dataclass
class Module:
    """One parsed source file."""

    path: Path
    relpath: str                     #: posix path relative to the scan root
    tree: ast.Module
    #: local alias -> stdlib module name ("random"/"time"/"datetime")
    module_aliases: Dict[str, str] = field(default_factory=dict)
    #: names imported *from* tracked modules: alias -> "module.attr"
    member_aliases: Dict[str, str] = field(default_factory=dict)
    #: 1-based line -> rule ids allowed there via ``# lint: allow[...]``
    allows: Dict[int, Set[str]] = field(default_factory=dict)

    def functions(self) -> Iterator[FunctionScope]:
        """Yield every function with a class-qualified name."""
        yield from self._walk(self.tree, prefix="")

    def _walk(self, node: ast.AST, prefix: str) -> Iterator[FunctionScope]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{child.name}"
                yield FunctionScope(qualname, child, self)
                yield from self._walk(child, prefix=f"{qualname}.")
            elif isinstance(child, ast.ClassDef):
                yield from self._walk(child, prefix=f"{prefix}{child.name}.")

    def collect_allows(self, source: str) -> None:
        """Record every ``# lint: allow[RULES]`` comment by line.

        A comment that is the whole line (nothing but the suppression)
        also covers the next line, so allows can sit above long
        statements without blowing the line-length budget.
        """
        for lineno, text in enumerate(source.splitlines(), start=1):
            match = ALLOW_COMMENT.search(text)
            if match is None:
                continue
            rules = {r.strip() for r in match.group(1).split(",") if r.strip()}
            self.allows.setdefault(lineno, set()).update(rules)
            if text.lstrip().startswith("#"):
                self.allows.setdefault(lineno + 1, set()).update(rules)

    def allowed_at(self, line: int, rule_id: str) -> bool:
        return rule_id in self.allows.get(line, ())

    def collect_aliases(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name in TRACKED_MODULES:
                        self.module_aliases[alias.asname or alias.name] = alias.name
            elif isinstance(node, ast.ImportFrom):
                if node.module in TRACKED_MODULES:
                    for alias in node.names:
                        self.member_aliases[alias.asname or alias.name] = \
                            f"{node.module}.{alias.name}"


@dataclass
class Project:
    """All modules under the scanned roots plus cross-module facts."""

    modules: List[Module] = field(default_factory=list)
    #: bare names of functions that force the stable log (transitively)
    force_set: Set[str] = field(default_factory=set)
    #: every name registered on an RpcDispatcher anywhere in the project
    registered_rpc: Set[str] = field(default_factory=set)
    #: (module, scope qualname, name, line) per register() call
    register_sites: List[Tuple[Module, str, str, int]] = field(default_factory=list)
    #: per-run memo for derived artifacts (call graph, summaries, ...)
    #: so checkers sharing one Project share one fixpoint each.
    cache: Dict[str, object] = field(default_factory=dict, repr=False)

    def functions(self) -> Iterator[FunctionScope]:
        for module in self.modules:
            yield from module.functions()

    # -- loading -------------------------------------------------------------

    @classmethod
    def load(cls, roots: List[Path]) -> "Project":
        project = cls()
        for root in roots:
            files = [root] if root.is_file() else sorted(root.rglob("*.py"))
            base = root.parent if root.is_file() else root
            for path in files:
                source = path.read_text(encoding="utf-8")
                tree = ast.parse(source, filename=str(path))
                relpath = path.relative_to(base).as_posix()
                module = Module(path=path, relpath=relpath, tree=tree)
                module.collect_aliases()
                module.collect_allows(source)
                project.modules.append(module)
        project._collect_force_set()
        project._collect_rpc_registry()
        return project

    # -- project-wide facts --------------------------------------------------

    def _collect_force_set(self) -> None:
        """Fixpoint of "forces the log": direct ``.force(``/``is_stable(``
        callers seed the set; callers of those functions join it."""
        direct: Set[str] = set()
        callees: Dict[str, Set[str]] = {}
        for scope in self.functions():
            called: Set[str] = set()
            for call in scope.calls():
                name = call_name(call)
                if name is not None:
                    called.add(name)
                # RPC indirection: stub.call("force_log_for_commit", ...)
                if name == "call":
                    called.update(string_args(call))
            callees[scope.name] = callees.get(scope.name, set()) | called
            if {"force", "is_stable"} & called:
                direct.add(scope.name)
        force_set = set(direct)
        changed = True
        while changed:
            changed = False
            for name, called in callees.items():
                if name not in force_set and called & force_set:
                    force_set.add(name)
                    changed = True
        self.force_set = force_set

    def _collect_rpc_registry(self) -> None:
        for scope in self.functions():
            for call in scope.calls():
                if call_name(call) != "register":
                    continue
                literals = string_args(call)
                if not literals:
                    continue
                name = literals[0]
                self.registered_rpc.add(name)
                self.register_sites.append(
                    (scope.module, scope.qualname, name, call.lineno))


def calls_force(call: ast.Call, force_set: Set[str]) -> bool:
    """True when this call forces the log, directly or transitively.

    Accepts ``x.force(...)``/``x.is_stable(...)``, calls whose callee's
    bare name is in the force set, and RPC invocations whose method-name
    string literal names a force-set function.
    """
    name = call_name(call)
    if name in ("force", "is_stable"):
        return True
    if name in force_set:
        return True
    if name == "call" and set(string_args(call)) & force_set:
        return True
    return False
