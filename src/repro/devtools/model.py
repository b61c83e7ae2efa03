"""The one parsed program model every PET rule runs over.

Parses a set of files/directories into a :class:`Program`: per-module
symbol tables (AST, imports, top-level functions, classes and their
methods, module-global mutable state) plus a conservatively-resolved
call graph.  Per-module rules (PET001–PET007) read ``ModuleInfo.tree``
and ``resolve_dotted``; interprocedural rules (PET101, PET102, PET104,
PET105) also walk the call graph.

Resolution strategy (static, best-effort, never raises on unknowns):

- ``from m import f`` / ``import m as alias`` are tracked per module, so
  ``seeding.fallback_rng(...)`` resolves to
  ``repro.parallel.seeding.fallback_rng``.
- ``self.m(...)`` resolves within the enclosing class, then through
  statically-known base classes defined in the program.
- Bare names resolve to same-module functions/classes; instantiating a
  program class resolves to its ``__init__`` when one is defined.
- Unresolved attribute calls ``x.m(...)`` fall back to *unique-method
  linking*: if exactly one program class defines ``m`` (and ``m`` is not
  a ubiquitous container/builtin name), the call resolves to it.

Every :class:`CallSite` keeps both the resolved program callee (if any)
and the raw dotted name, so rules can match library calls
(``np.random.default_rng``) that are not program symbols.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set

__all__ = ["CallSite", "FunctionInfo", "ClassInfo", "ModuleInfo", "Program",
           "build_program", "iter_py_files", "module_name_for",
           "package_path_for", "resolve_dotted", "is_mutable_value"]

#: method names too generic for unique-method call linking.
_COMMON_METHODS = frozenset({
    "get", "put", "pop", "add", "append", "extend", "remove", "clear",
    "update", "copy", "keys", "values", "items", "sort", "join", "split",
    "strip", "format", "read", "write", "close", "open", "run", "step",
    "reset", "start", "stop", "submit", "send", "recv", "next", "result",
    "name", "to", "at",
})

#: constructors whose result is a fresh *mutable* container.
_MUTABLE_FACTORIES = frozenset({
    "list", "dict", "set", "bytearray", "deque", "defaultdict",
    "OrderedDict", "Counter",
})


@dataclass
class CallSite:
    """One call expression inside a function body."""

    node: ast.Call
    #: fully-aliased dotted name of the callee expression, if nameable
    #: ("numpy.random.default_rng", "repro.parallel.engine.TaskSpec").
    dotted: Optional[str]
    #: qualname of the resolved *program* function, when resolution
    #: succeeded ("repro.core.training.pretrain_offline_multi").
    callee: Optional[str] = None
    #: qualname of the program class being instantiated, when the call
    #: is a constructor (resolution then points at ``__init__`` if any).
    instantiates: Optional[str] = None


@dataclass
class FunctionInfo:
    """One function/method definition in the program."""

    qualname: str
    name: str
    module: "ModuleInfo"
    node: ast.AST                       # FunctionDef | AsyncFunctionDef
    cls: Optional[str] = None           # enclosing class *name*
    parent: Optional[str] = None        # enclosing function qualname
    params: List[str] = field(default_factory=list)
    calls: List[CallSite] = field(default_factory=list)

    @property
    def is_nested(self) -> bool:
        return self.parent is not None

    @property
    def is_method(self) -> bool:
        return self.cls is not None


@dataclass
class ClassInfo:
    """One class definition: name, bases and method table."""

    name: str
    qualname: str
    module: "ModuleInfo"
    node: ast.ClassDef
    bases: List[str] = field(default_factory=list)   # dotted base names
    methods: Dict[str, str] = field(default_factory=dict)  # name -> qualname


class ModuleInfo:
    """Symbol table for one parsed module."""

    def __init__(self, modname: str, path: str, pkg_path: str,
                 tree: ast.Module, source: str) -> None:
        self.modname = modname
        #: the path as given on the command line (what findings print)
        self.path = path
        #: the path rooted at the top-level package
        #: (``repro/netsim/fluid.py``), the same from any CWD or checkout;
        #: rule scopes and baseline fingerprints key on it.
        self.pkg_path = pkg_path
        self.tree = tree
        self.lines = source.splitlines()
        #: ``import numpy as np``  ->  {"np": "numpy"}
        self.aliases: Dict[str, str] = {}
        #: ``from repro.parallel import seeding``
        #:   ->  {"seeding": "repro.parallel.seeding"}
        self.from_imports: Dict[str, str] = {}
        self.functions: Dict[str, FunctionInfo] = {}     # by qualname
        self.classes: Dict[str, ClassInfo] = {}          # by class *name*
        self.mutable_globals: Set[str] = set()
        #: id(node) -> parent node, for enclosing-scope walks.
        self.parents: Dict[int, ast.AST] = {}

    def line_text(self, lineno: int) -> str:
        if 0 < lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def parent_of(self, node: ast.AST) -> Optional[ast.AST]:
        return self.parents.get(id(node))

    def ancestors(self, node: ast.AST) -> Iterable[ast.AST]:
        cur = self.parent_of(node)
        while cur is not None:
            yield cur
            cur = self.parent_of(cur)


class Program:
    """The whole program: modules, global symbol tables, call graph."""

    def __init__(self) -> None:
        #: every parsed file, including ones whose module names collide
        #: (two ``conftest.py`` outside any package).
        self.modules: List[ModuleInfo] = []
        self.functions: Dict[str, FunctionInfo] = {}     # by qualname
        self.classes: Dict[str, ClassInfo] = {}          # by qualname
        #: method name -> qualnames of every program method with it.
        self.method_index: Dict[str, List[str]] = {}

    # -- queries ------------------------------------------------------------
    def function_at(self, module: ModuleInfo,
                    node: ast.AST) -> Optional[FunctionInfo]:
        """Innermost program function enclosing ``node`` (or None)."""
        cur: Optional[ast.AST] = node
        while cur is not None:
            if isinstance(cur, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for fn in module.functions.values():
                    if fn.node is cur:
                        return fn
            cur = module.parent_of(cur)
        return None

    def reachable_from(self, roots: Iterable[str]) -> Set[str]:
        """Qualnames reachable over resolved call edges (roots included)."""
        seen: Set[str] = set()
        stack = [r for r in roots if r in self.functions]
        while stack:
            q = stack.pop()
            if q in seen:
                continue
            seen.add(q)
            for cs in self.functions[q].calls:
                if cs.callee and cs.callee not in seen:
                    stack.append(cs.callee)
        return seen

    def resolve_class(self, module: ModuleInfo,
                      name: str) -> Optional[ClassInfo]:
        """A class visible under ``name`` inside ``module``."""
        if name in module.classes:
            return module.classes[name]
        origin = module.from_imports.get(name)
        if origin and origin in self.classes:
            return self.classes[origin]
        return None

    def method_in_class(self, cls: ClassInfo, method: str,
                        _depth: int = 0) -> Optional[str]:
        """Resolve ``method`` in ``cls`` or its program-known bases."""
        if method in cls.methods:
            return cls.methods[method]
        if _depth > 8:
            return None
        for base in cls.bases:
            b = (self.classes.get(base)
                 or self.resolve_class(cls.module, base.split(".")[-1]))
            if b is not None and b is not cls:
                got = self.method_in_class(b, method, _depth + 1)
                if got:
                    return got
        return None


# -- parsing ------------------------------------------------------------------

def package_path_for(path: Path) -> str:
    """Posix path of a file relative to the directory above its package.

    Walks up while ``__init__.py`` siblings exist, so any location of a
    ``repro/...`` tree (``src/``, a test fixture dir, any CWD) yields the
    same ``repro/x/y.py``; a file outside any package is just its name.
    """
    path = path.resolve()
    root = path.parent
    while (root / "__init__.py").exists() and root.parent != root:
        root = root.parent
    return path.relative_to(root).as_posix()


def module_name_for(path: Path) -> str:
    """Package-rooted dotted module name for a file (``repro.x.y``)."""
    parts = list(Path(package_path_for(path)).with_suffix("").parts)
    if parts[-1] == "__init__" and len(parts) > 1:
        parts.pop()
    return ".".join(parts)


def iter_py_files(paths: Iterable[str]) -> List[Path]:
    out: List[Path] = []
    for p in paths:
        path = Path(p)
        if path.is_dir():
            out.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            out.append(path)
    return out


class _ModuleIndexer(ast.NodeVisitor):
    """First pass: declarations, imports, parents, mutable globals."""

    def __init__(self, module: ModuleInfo) -> None:
        self.m = module
        self._class_stack: List[ClassInfo] = []
        self._func_stack: List[FunctionInfo] = []

    def index(self) -> None:
        for node in ast.walk(self.m.tree):
            for child in ast.iter_child_nodes(node):
                self.m.parents[id(child)] = node
        self.visit(self.m.tree)

    # imports
    def visit_Import(self, node: ast.Import) -> None:
        for a in node.names:
            local = a.asname or a.name.split(".")[0]
            self.m.aliases[local] = a.name if a.asname else a.name.split(".")[0]

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and node.level == 0:
            for a in node.names:
                if a.name != "*":
                    self.m.from_imports[a.asname or a.name] = (
                        f"{node.module}.{a.name}")

    # module-global mutable state
    def visit_Assign(self, node: ast.Assign) -> None:
        if not self._class_stack and not self._func_stack:
            if is_mutable_value(node.value):
                for t in node.targets:
                    if isinstance(t, ast.Name):
                        self.m.mutable_globals.add(t.id)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if (not self._class_stack and not self._func_stack
                and node.value is not None and is_mutable_value(node.value)
                and isinstance(node.target, ast.Name)):
            self.m.mutable_globals.add(node.target.id)
        self.generic_visit(node)

    # declarations
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        qual = f"{self.m.modname}.{node.name}"
        info = ClassInfo(name=node.name, qualname=qual, module=self.m,
                         node=node, bases=[_dotted(b) or "" for b in node.bases])
        self.m.classes[node.name] = info
        self._class_stack.append(info)
        self.generic_visit(node)
        self._class_stack.pop()

    def _visit_func(self, node) -> None:
        cls = self._class_stack[-1] if self._class_stack else None
        parent = self._func_stack[-1] if self._func_stack else None
        if parent is not None:
            qual = f"{parent.qualname}.<locals>.{node.name}"
        elif cls is not None:
            qual = f"{cls.qualname}.{node.name}"
        else:
            qual = f"{self.m.modname}.{node.name}"
        a = node.args
        params = [p.arg for p in
                  list(a.posonlyargs) + list(a.args) + list(a.kwonlyargs)]
        info = FunctionInfo(qualname=qual, name=node.name, module=self.m,
                            node=node, cls=cls.name if cls else None,
                            parent=parent.qualname if parent else None,
                            params=params)
        self.m.functions[qual] = info
        if cls is not None and parent is None:
            cls.methods[node.name] = qual
        self._func_stack.append(info)
        self.generic_visit(node)
        self._func_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_func(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_func(node)


def is_mutable_value(node: ast.expr) -> bool:
    """Does ``node`` build a fresh mutable container (``[]``, ``dict()``,
    ``deque()`` ...)?  Module globals (PET102) and defaults (PET006)."""
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        fn = node.func
        name = fn.id if isinstance(fn, ast.Name) else (
            fn.attr if isinstance(fn, ast.Attribute) else None)
        return name in _MUTABLE_FACTORIES
    return False


def _dotted(node: ast.expr) -> Optional[str]:
    """Plain dotted text of a Name/Attribute chain (no alias mapping)."""
    parts: List[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if not isinstance(cur, ast.Name):
        return None
    parts.append(cur.id)
    return ".".join(reversed(parts))


def resolve_dotted(module: ModuleInfo, node: ast.expr) -> Optional[str]:
    """Dotted name with the module's import aliases applied at the root."""
    raw = _dotted(node)
    if raw is None:
        return None
    root, _, rest = raw.partition(".")
    if root in module.from_imports:
        head = module.from_imports[root]
    elif root in module.aliases:
        head = module.aliases[root]
    else:
        head = root
    return head + ("." + rest if rest else "")


class _CallLinker:
    """Second pass: attach resolved :class:`CallSite` records."""

    def __init__(self, program: Program) -> None:
        self.p = program

    def link(self) -> None:
        for module in self.p.modules:
            for fn in module.functions.values():
                fn.calls = [self._link_call(module, fn, c)
                            for c in _own_calls(module, fn)]

    def _link_call(self, module: ModuleInfo, fn: FunctionInfo,
                   node: ast.Call) -> CallSite:
        dotted = resolve_dotted(module, node.func)
        cs = CallSite(node=node, dotted=dotted)
        if dotted is None:
            return cs
        parts = dotted.split(".")
        # self.m(...) / cls.m(...)
        if parts[0] in ("self", "cls") and fn.cls is not None:
            cls = module.classes.get(fn.cls)
            if cls is not None and len(parts) == 2:
                got = self.p.method_in_class(cls, parts[1])
                if got:
                    cs.callee = got
                    return cs
        # fully-qualified program symbol (function or Class.method)
        if dotted in self.p.functions:
            cs.callee = dotted
            return cs
        # name visible in this module: function or class constructor
        target: Optional[str] = None
        if len(parts) == 1:
            target = f"{module.modname}.{parts[0]}"
        if target in self.p.functions:
            cs.callee = target
            return cs
        cls_info = None
        if len(parts) == 1:
            cls_info = self.p.resolve_class(module, parts[0])
        elif dotted in self.p.classes:
            cls_info = self.p.classes[dotted]
        if cls_info is not None:
            cs.instantiates = cls_info.qualname
            cs.dotted = cls_info.qualname
            init = cls_info.methods.get("__init__")
            if init:
                cs.callee = init
            return cs
        # unique-method linking for x.m(...)
        if len(parts) >= 2:
            meth = parts[-1]
            owners = self.p.method_index.get(meth, [])
            if len(owners) == 1 and meth not in _COMMON_METHODS:
                cs.callee = owners[0]
        return cs


def _own_calls(module: ModuleInfo, fn: FunctionInfo) -> List[ast.Call]:
    """Call nodes belonging to ``fn`` itself (not to nested defs)."""
    out: List[ast.Call] = []
    for node in ast.walk(fn.node):
        if not isinstance(node, ast.Call):
            continue
        owner: Optional[ast.AST] = node
        while owner is not None and not isinstance(
                owner, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = module.parent_of(owner)
        if owner is fn.node:
            out.append(node)
    return out


def build_program(paths: Iterable[str]) -> Program:
    """Parse every ``.py`` under ``paths`` into a linked :class:`Program`.

    Raises :class:`SyntaxError` (with ``filename`` set) on a file that
    does not parse — the CLI maps this to exit status 2.
    """
    program = Program()
    for f in iter_py_files(paths):
        source = f.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(f))
        module = ModuleInfo(module_name_for(f), str(f), package_path_for(f),
                            tree, source)
        _ModuleIndexer(module).index()
        program.modules.append(module)
    for module in program.modules:
        program.functions.update(module.functions)
        for cls in module.classes.values():
            program.classes[cls.qualname] = cls
            for name, qual in cls.methods.items():
                program.method_index.setdefault(name, []).append(qual)
    _CallLinker(program).link()
    return program
