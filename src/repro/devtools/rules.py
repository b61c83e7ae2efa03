"""The PET rules, their registry and the one function that runs them.

Every rule maps the one parsed :class:`~repro.devtools.model.Program` to
a list of :class:`~repro.devtools.report.Finding`:

- *per-module* rules (PET001–PET007) check one ``ModuleInfo.tree`` at a
  time — wall-clock time, unseeded randomness, float equality on sim
  time, unit-suffix mixing, negative ``schedule`` delays, mutable
  defaults, builtin ``hash()``;
- *interprocedural* rules (PET101, PET102, PET104, PET105) follow the
  call graph — RNG provenance, process-boundary safety, iteration order
  on merge/export paths, zero-overhead telemetry.

The rules are deliberately conservative: an expression whose provenance
cannot be established statically stays *unknown* and is not reported —
only provably-bad code fires, so every finding is actionable.  One
entry point (:func:`analyze_paths`) applies ``select``, the ``# pet: noqa``
escape hatch and the sort; accepted exceptions live in the checked-in
baseline, reviewed one by one.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Set, Tuple)

from repro.devtools.model import (CallSite, FunctionInfo, ModuleInfo, Program,
                                  build_program, is_mutable_value,
                                  resolve_dotted)
from repro.devtools.report import Finding

__all__ = ["RULES", "analyze_paths"]

#: The rule catalogue: ``--list-rules``, ``--select`` validation and the
#: SARIF rule metadata all read it.
RULES: Dict[str, str] = {
    "PET001": "wall-clock time source in simulation code (use virtual time)",
    "PET002": "unseeded or global randomness (inject a seeded numpy Generator)",
    "PET003": "float equality comparison on simulation time",
    "PET004": "mixes identifiers with different unit suffixes",
    "PET005": "schedule() delay is not provably non-negative",
    "PET006": "mutable default argument",
    "PET007": "builtin hash() in simulation code (use an explicit mix)",
    "PET101": "RNG provenance: ambient/unseeded Generator reaches simulation "
              "or training code (seed it or derive via parallel.seeding)",
    "PET102": "process-boundary safety: Engine task path uses a closure, "
              "nested/bound callable, or module-global mutable state",
    "PET104": "iteration-order nondeterminism: unsorted dict/set iteration "
              "on a merge/fingerprint/export path",
    "PET105": "zero-overhead telemetry: eager computation in obs arguments "
              "outside an enabled-telemetry guard",
}

#: packages where wall-clock time, unseeded randomness and builtin
#: ``hash()`` are forbidden (PET001, PET002, PET007).
_DETERMINISM_SCOPE = frozenset({"netsim", "core", "rl"})
#: packages marking simulator/training code (PET101 sinks).
_SIM_SCOPE = frozenset({"netsim", "core", "rl", "gymenv", "traffic",
                        "baselines", "analysis"})

_SEEDING_FNS = frozenset({"fallback_rng", "derive_rng", "derive_seed",
                          "spawn_seed_sequence"})
_RNG_CONSTRUCTORS = frozenset({"default_rng", "Generator", "RandomState"})
_BITGEN_CONSTRUCTORS = frozenset({"PCG64", "PCG64DXSM", "Philox", "SFC64",
                                  "MT19937", "SeedSequence"})

# provenance lattice: seeded < unknown < ambient
_SEEDED, _UNKNOWN, _AMBIENT = "seeded", "unknown", "ambient"
_ORDER = {_SEEDED: 0, _UNKNOWN: 1, _AMBIENT: 2}

_NOQA_RE = re.compile(r"#\s*pet:\s*noqa(-(?P<rules>PET\d{3}(?:\s*,\s*PET\d{3})*))?",
                      re.IGNORECASE)


def _join(*provs: str) -> str:
    return max(provs, key=lambda p: _ORDER[p]) if provs else _UNKNOWN


def _scoped(module: ModuleInfo, scope: frozenset) -> bool:
    """Is ``module`` under one of the ``scope`` packages?"""
    return bool(scope.intersection(Path(module.pkg_path).parts))


def _finding(rule: str, module: ModuleInfo, node: ast.AST, symbol: str,
             message: str) -> Finding:
    return Finding(rule=rule, path=module.path, pkg_path=module.pkg_path,
                   line=getattr(node, "lineno", 1),
                   col=getattr(node, "col_offset", 0),
                   symbol=symbol, message=message)


def _basename(dotted: Optional[str]) -> str:
    return dotted.rsplit(".", 1)[-1] if dotted else ""


# =========================================================================
# PET001–PET007 — per-module rules: (ModuleInfo) -> (node, message) pairs
# =========================================================================

_WALL_CLOCK_CALLS = (
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns", "datetime.now", "datetime.utcnow",
    "datetime.today", "date.today",
)

#: numpy.random attributes that *construct* a seedable generator: allowed
#: when given an explicit seed/bit-generator argument.
_SEEDABLE = _RNG_CONSTRUCTORS | _BITGEN_CONSTRUCTORS

_UNIT_SUFFIX_RE = re.compile(
    r"_(bytes|kb|mb|gb|bits|pkts|bps|kbps|mbps|gbps|s|ms|us|ns)$")

_Hits = Iterator[Tuple[ast.AST, str]]


def _calls(module: ModuleInfo) -> Iterator[Tuple[ast.Call, str]]:
    """Every call with a nameable callee, and its import-resolved name."""
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call):
            dotted = resolve_dotted(module, node.func)
            if dotted is not None:
                yield node, dotted


def _pet001(module: ModuleInfo) -> _Hits:
    if not _scoped(module, _DETERMINISM_SCOPE):
        return
    for node, dotted in _calls(module):
        for forbidden in _WALL_CLOCK_CALLS:
            if dotted == forbidden or dotted.endswith("." + forbidden):
                yield node, (f"call to wall-clock `{forbidden}` — simulation "
                             "code must use virtual time (Simulator.now)")
                break


def _pet002(module: ModuleInfo) -> _Hits:
    if not _scoped(module, _DETERMINISM_SCOPE):
        return
    for node, dotted in _calls(module):
        message = _global_randomness(node, dotted)
        if message is not None:
            yield node, message


def _global_randomness(node: ast.Call, dotted: str) -> Optional[str]:
    parts = dotted.split(".")
    unseeded = not node.args and not node.keywords
    if parts[0] == "random" and len(parts) > 1:
        return (f"stdlib `{dotted}` uses the global RNG — inject a seeded "
                "numpy Generator instead")
    # numpy.random.X (or anything.random.X after alias resolution,
    # excluding generator *instances* like `self.rng.random()`).
    if len(parts) >= 3 and parts[-2] == "random" and parts[0] in ("numpy", "np"):
        if parts[-1] not in _SEEDABLE:
            return (f"module-level `{dotted}` uses numpy's global RNG — "
                    "inject a seeded Generator instead")
        if unseeded:
            return (f"`{dotted}()` without a seed is nondeterministic — "
                    "pass a seed or inject a Generator")
        return None
    # from numpy.random import default_rng  ->  default_rng()
    if dotted.startswith("numpy.random.") and parts[-1] in _SEEDABLE \
            and unseeded:
        return (f"`{parts[-1]}()` without a seed is nondeterministic — "
                "pass a seed or inject a Generator")
    return None


def _is_time_expr(node: ast.expr) -> bool:
    if isinstance(node, ast.Name):
        return node.id == "now" or node.id.endswith("_time")
    if isinstance(node, ast.Attribute):
        return node.attr in ("now", "time") or node.attr.endswith("_time")
    return False


def _pet003(module: ModuleInfo) -> _Hits:
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left] + list(node.comparators)
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if isinstance(op, (ast.Eq, ast.NotEq)) and (
                    _is_time_expr(left) or _is_time_expr(right)):
                yield node, ("float equality on simulation time — compare "
                             "with a tolerance or an ordering")


def _unit_suffix(node: ast.expr) -> Optional[str]:
    name: Optional[str] = None
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    if name is None:
        return None
    m = _UNIT_SUFFIX_RE.search(name)
    return m.group(1) if m else None


def _unit_mix(a: ast.expr, b: ast.expr) -> Optional[Tuple[str, str]]:
    """The unit suffixes of ``a`` and ``b`` when both have one and differ."""
    s1, s2 = _unit_suffix(a), _unit_suffix(b)
    if s1 is not None and s2 is not None and s1 != s2:
        return s1, s2
    return None


def _unit_assignments(node: ast.AST) -> List[Tuple[ast.expr, ast.expr]]:
    """(target, source) of a plain name-to-name (augmented) assignment."""
    targets: List[ast.expr]
    if isinstance(node, ast.Assign):
        targets = list(node.targets)
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    elif isinstance(node, ast.AugAssign) and isinstance(node.op,
                                                        (ast.Add, ast.Sub)):
        targets = [node.target]
    else:
        return []
    if not isinstance(node.value, (ast.Name, ast.Attribute)):
        return []
    return [(t, node.value) for t in targets]


def _pet004(module: ModuleInfo) -> _Hits:
    """Unit-suffix discipline, under ``netsim`` and in ``core/config.py``."""
    parts = Path(module.pkg_path).parts
    if not ("netsim" in parts or ("core" in parts and parts[-1] == "config.py")):
        return
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Compare):
            operands = [node.left] + list(node.comparators)
            for left, right in zip(operands, operands[1:]):
                mix = _unit_mix(left, right)
                if mix is not None:
                    yield node, (f"comparison mixes `_{mix[0]}` and "
                                 f"`_{mix[1]}` quantities — convert "
                                 "explicitly first")
        elif isinstance(node, ast.BinOp) and isinstance(node.op,
                                                        (ast.Add, ast.Sub)):
            mix = _unit_mix(node.left, node.right)
            if mix is not None:
                op = "+" if isinstance(node.op, ast.Add) else "-"
                yield node, (f"`{op}` mixes `_{mix[0]}` and `_{mix[1]}` "
                             "quantities — convert explicitly first")
        for target, value in _unit_assignments(node):
            mix = _unit_mix(target, value)
            if mix is not None:
                yield target, (f"assigns a `_{mix[1]}` value to a "
                               f"`_{mix[0]}` name — convert explicitly first")


def _pet005(module: ModuleInfo) -> _Hits:
    for node, dotted in _calls(module):
        if not dotted.endswith(".schedule") and dotted != "schedule":
            continue
        delay: Optional[ast.expr] = None
        if node.args:
            delay = node.args[0]
        else:
            for kw in node.keywords:
                if kw.arg == "delay":
                    delay = kw.value
        if delay is None:
            continue
        if isinstance(delay, ast.Constant) and isinstance(delay.value,
                                                          (int, float)):
            if delay.value < 0:
                yield node, (f"schedule() with negative literal delay "
                             f"{delay.value}")
        elif _maybe_negative(delay):
            yield node, ("schedule() delay contains a subtraction/negation "
                         "not wrapped in max()/abs() — clamp it or annotate "
                         "the line")


def _maybe_negative(expr: ast.expr) -> bool:
    """Conservative check: does the expression contain a subtraction
    or unary minus outside a clamping ``max()``/``abs()`` call?"""
    if isinstance(expr, ast.Call):
        fn = expr.func
        if isinstance(fn, ast.Name) and fn.id in ("max", "abs"):
            return False
        return any(_maybe_negative(a) for a in expr.args) or any(
            _maybe_negative(kw.value) for kw in expr.keywords)
    if isinstance(expr, ast.UnaryOp) and isinstance(expr.op, ast.USub):
        return True
    if isinstance(expr, ast.BinOp):
        if isinstance(expr.op, ast.Sub):
            return True
        return _maybe_negative(expr.left) or _maybe_negative(expr.right)
    if isinstance(expr, ast.IfExp):
        return _maybe_negative(expr.body) or _maybe_negative(expr.orelse)
    return False


def _pet006(module: ModuleInfo) -> _Hits:
    for node in ast.walk(module.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None]
        for d in defaults:
            if is_mutable_value(d):
                yield d, (f"mutable default argument in `{node.name}()` — "
                          "use None and construct inside the body")


def _pet007(module: ModuleInfo) -> _Hits:
    if not _scoped(module, _DETERMINISM_SCOPE):
        return
    for node, dotted in _calls(module):
        # Only the bare builtin: `obj.hash(...)` or an imported
        # `hashlib`-style name resolves to a dotted path and is fine.
        if dotted == "hash" and isinstance(node.func, ast.Name):
            yield node, ("builtin `hash()` is implementation-defined across "
                         "interpreters — sim-state decisions must use an "
                         "explicit mix (repro.netsim.routing.splitmix64)")


# =========================================================================
# PET101 — RNG provenance
# =========================================================================

class _RngFlow:
    """Local + interprocedural provenance of Generator-valued expressions."""

    def __init__(self, program: Program) -> None:
        self.p = program
        #: interprocedural RNG provenance of (function qualname, param name).
        self.param_prov: Dict[Tuple[str, str], str] = {}

    # -- seed-value provenance ---------------------------------------------
    def seed_prov(self, expr: ast.expr, fn: FunctionInfo,
                  env: Dict[str, str]) -> str:
        if isinstance(expr, ast.Constant):
            return _SEEDED if expr.value is not None else _UNKNOWN
        if isinstance(expr, ast.Name):
            if expr.id in env:
                return env[expr.id]
            if expr.id in fn.params:
                return self.param_prov.get((fn.qualname, expr.id), _UNKNOWN)
            return _UNKNOWN
        if isinstance(expr, ast.BinOp):
            return _join(self.seed_prov(expr.left, fn, env),
                         self.seed_prov(expr.right, fn, env))
        if isinstance(expr, ast.Call):
            dotted = resolve_dotted(fn.module, expr.func) or ""
            base = _basename(dotted)
            if base in _SEEDING_FNS or ".seeding." in dotted:
                return _SEEDED
            if base == "SeedSequence":
                return _SEEDED if (expr.args or expr.keywords) else _AMBIENT
            return _UNKNOWN
        return _UNKNOWN

    # -- generator-expression provenance -----------------------------------
    def rng_prov(self, expr: ast.expr, fn: FunctionInfo,
                 env: Dict[str, str]) -> Optional[str]:
        """Provenance if ``expr`` is Generator-valued, else ``None``."""
        if isinstance(expr, ast.Name):
            if expr.id in env:
                return env[expr.id]
            if expr.id in fn.params:
                return self.param_prov.get((fn.qualname, expr.id))
            return None
        if isinstance(expr, ast.IfExp):
            provs = [p for p in (self.rng_prov(expr.body, fn, env),
                                 self.rng_prov(expr.orelse, fn, env))
                     if p is not None]
            return _join(*provs) if provs else None
        if isinstance(expr, ast.BoolOp):
            provs = [p for p in (self.rng_prov(v, fn, env)
                                 for v in expr.values) if p is not None]
            return _join(*provs) if provs else None
        if not isinstance(expr, ast.Call):
            return None
        dotted = resolve_dotted(fn.module, expr.func) or ""
        base = _basename(dotted)
        if base in ("fallback_rng", "derive_rng") and (
                ".seeding." in dotted or base in fn.module.from_imports
                or dotted.startswith("seeding.")):
            return _SEEDED
        if (base == "default_rng" and ("random" in dotted
                                       or dotted == "default_rng")) \
                or (base == "RandomState" and "random" in dotted):
            if not expr.args and not expr.keywords:
                return _AMBIENT
            arg = expr.args[0] if expr.args else expr.keywords[0].value
            return self._seed_or_bitgen(arg, fn, env)
        if base == "Generator" and "random" in dotted:
            if expr.args:
                return self._seed_or_bitgen(expr.args[0], fn, env)
            return _AMBIENT
        return None

    def _seed_or_bitgen(self, arg: ast.expr, fn: FunctionInfo,
                        env: Dict[str, str]) -> str:
        if isinstance(arg, ast.Call):
            dotted = resolve_dotted(fn.module, arg.func) or ""
            if _basename(dotted) in _BITGEN_CONSTRUCTORS:
                return (_SEEDED if (arg.args or arg.keywords) else _AMBIENT)
        return self.seed_prov(arg, fn, env)

    # -- per-function environment ------------------------------------------
    def local_env(self, fn: FunctionInfo) -> Dict[str, str]:
        """name -> provenance for locals assigned RNG-valued expressions.

        Assignments are folded in source order; reassignment joins with
        the previous value (no CFG — conservative for branches).
        """
        env: Dict[str, str] = {}
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                name = node.targets[0].id
                prov = self.rng_prov(node.value, fn, env)
                if prov is None and isinstance(node.value, ast.Constant) \
                        and isinstance(node.value.value, int):
                    env.setdefault(name, _SEEDED)   # literal seed value
                    continue
                if prov is not None:
                    env[name] = (_join(env[name], prov)
                                 if name in env else prov)
            elif isinstance(node, ast.If):
                # `if rng is None: rng = fallback()` — join the branch.
                for stmt in node.body:
                    if isinstance(stmt, ast.Assign) \
                            and len(stmt.targets) == 1 \
                            and isinstance(stmt.targets[0], ast.Name):
                        prov = self.rng_prov(stmt.value, fn, env)
                        name = stmt.targets[0].id
                        if prov is not None:
                            env[name] = (_join(env[name], prov)
                                         if name in env else prov)
        return env

    # -- interprocedural fixpoint ------------------------------------------
    def propagate_params(self, max_rounds: int = 6) -> None:
        """Join argument provenances into callee parameter slots."""
        for _ in range(max_rounds):
            changed = False
            for fn in self.p.functions.values():
                env = self.local_env(fn)
                for cs in fn.calls:
                    if cs.callee is None:
                        continue
                    callee = self.p.functions[cs.callee]
                    for pname, arg in _bind_args(callee, cs):
                        prov = self.rng_prov(arg, fn, env)
                        if prov is None:
                            continue
                        key = (callee.qualname, pname)
                        old = self.param_prov.get(key)
                        new = _join(old, prov) if old else prov
                        if new != old:
                            self.param_prov[key] = new
                            changed = True
            if not changed:
                break


def _bind_args(callee: FunctionInfo,
               cs: CallSite) -> List[Tuple[str, ast.expr]]:
    """Best-effort (param name, argument expr) binding for a call."""
    params = list(callee.params)
    if params and params[0] in ("self", "cls") and (
            callee.is_method or cs.instantiates):
        params = params[1:]
    out: List[Tuple[str, ast.expr]] = []
    for i, arg in enumerate(cs.node.args):
        if i < len(params):
            out.append((params[i], arg))
    for kw in cs.node.keywords:
        if kw.arg and kw.arg in callee.params:
            out.append((kw.arg, kw.value))
    return out


def rule_pet101(program: Program) -> List[Finding]:
    flow = _RngFlow(program)
    flow.propagate_params()
    findings: List[Finding] = []
    for fn in program.functions.values():
        env = flow.local_env(fn)
        in_sim = _scoped(fn.module, _SIM_SCOPE)
        for cs in fn.calls:
            # ambient construction inside simulator/training code
            prov = flow.rng_prov(cs.node, fn, env)
            if prov == _AMBIENT and in_sim:
                findings.append(_finding(
                    "PET101", fn.module, cs.node, fn.qualname,
                    "ambient (unseeded) Generator constructed in "
                    "simulation/training code — seed it or derive via "
                    "repro.parallel.seeding"))
                continue
            # ambient generator flowing into simulator/training code
            if cs.callee is None:
                continue
            callee = program.functions[cs.callee]
            if not _scoped(callee.module, _SIM_SCOPE):
                continue
            for pname, arg in _bind_args(callee, cs):
                if flow.rng_prov(arg, fn, env) == _AMBIENT:
                    findings.append(_finding(
                        "PET101", fn.module, arg, fn.qualname,
                        f"ambient (unseeded) Generator flows into "
                        f"`{callee.qualname}({pname}=...)` — derive the "
                        "stream from parallel.seeding or a seed literal"))
    return findings


# =========================================================================
# PET102 — process-boundary safety
# =========================================================================

_TASK_FACTORIES = frozenset({"map_tasks"})
_ENGINE_NAMES = frozenset({"engine", "eng"})


def _locals_bound_to(fn: FunctionInfo, callees: frozenset) -> Set[str]:
    """Local names inside ``fn`` assigned the result of a call to one of
    ``callees`` (an Engine for PET102, an obs getter for PET105)."""
    out: Set[str] = set()
    for node in ast.walk(fn.node):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            dotted = resolve_dotted(fn.module, node.value.func) or ""
            if _basename(dotted) in callees:
                for t in node.targets:
                    if isinstance(t, ast.Name):
                        out.add(t.id)
    return out


def _submitted_callables(program: Program) -> List[
        Tuple[FunctionInfo, CallSite, ast.expr]]:
    """(submitting fn, call site, callable expr) for every submission."""
    out = []
    for fn in program.functions.values():
        engines = _locals_bound_to(fn, frozenset({"Engine"}))
        for cs in fn.calls:
            dotted = cs.dotted or ""
            base = _basename(dotted)
            target: Optional[ast.expr] = None
            if base == "TaskSpec" or (cs.instantiates or "").endswith(
                    ".TaskSpec"):
                for kw in cs.node.keywords:
                    if kw.arg == "fn":
                        target = kw.value
                if target is None and len(cs.node.args) >= 2:
                    target = cs.node.args[1]
            elif base in _TASK_FACTORIES:
                if cs.node.args:
                    target = cs.node.args[0]
            elif base == "map" and "." in dotted:
                recv = dotted.rsplit(".", 1)[0]
                recv_base = recv.split(".")[-1]
                if (recv_base in engines or recv_base in _ENGINE_NAMES
                        or recv_base == "Engine"
                        or recv.endswith("self.engine")):
                    if cs.node.args:
                        target = cs.node.args[0]
            if target is not None:
                out.append((fn, cs, target))
    return out


def _resolve_callable_name(fn: FunctionInfo, program: Program,
                           name: str) -> Optional[FunctionInfo]:
    mod = fn.module
    qual = mod.from_imports.get(name, f"{mod.modname}.{name}")
    if qual in program.functions:
        return program.functions[qual]
    # nested function of the submitting function itself
    nested = f"{fn.qualname}.<locals>.{name}"
    return program.functions.get(nested)


def rule_pet102(program: Program) -> List[Finding]:
    findings: List[Finding] = []
    task_roots: Set[str] = set()

    def check_callable(fn: FunctionInfo, expr: ast.expr, where: str) -> None:
        if isinstance(expr, ast.Lambda):
            findings.append(_finding(
                "PET102", fn.module, expr, fn.qualname,
                f"lambda submitted as {where} — workers unpickle task "
                "specs; promote it to a top-level callable"))
            return
        if isinstance(expr, ast.Call):
            dotted = resolve_dotted(fn.module, expr.func) or ""
            if _basename(dotted) == "partial":
                if expr.args:
                    check_callable(fn, expr.args[0], where)
                    for extra in list(expr.args[1:]) + [
                            kw.value for kw in expr.keywords]:
                        for sub in ast.walk(extra):
                            if isinstance(sub, ast.Lambda):
                                findings.append(_finding(
                                    "PET102", fn.module, sub, fn.qualname,
                                    "lambda bound into a partial on the "
                                    "task path — not picklable"))
            return
        if isinstance(expr, ast.Attribute):
            root = expr.value
            if isinstance(root, ast.Name) and root.id == "self":
                findings.append(_finding(
                    "PET102", fn.module, expr, fn.qualname,
                    f"bound method `self.{expr.attr}` submitted as {where} "
                    "— pickles the whole instance; use a top-level "
                    "function"))
            return
        if isinstance(expr, ast.Name):
            target = _resolve_callable_name(fn, program, expr.id)
            if target is None:
                return
            if target.is_nested:
                findings.append(_finding(
                    "PET102", fn.module, expr, fn.qualname,
                    f"nested function `{expr.id}` submitted as {where} — "
                    "closures cannot cross the process boundary; promote "
                    "it to module level"))
            elif target.is_method:
                findings.append(_finding(
                    "PET102", fn.module, expr, fn.qualname,
                    f"method `{target.qualname}` submitted as {where} — "
                    "use a top-level function"))
            else:
                task_roots.add(target.qualname)

    for fn, cs, expr in _submitted_callables(program):
        check_callable(fn, expr, "an Engine task callable")
        # lambdas hidden inside TaskSpec args/kwargs payloads
        for arg in list(cs.node.args) + [kw.value for kw in cs.node.keywords]:
            if arg is expr:
                continue
            for sub in ast.walk(arg):
                if isinstance(sub, ast.Lambda):
                    findings.append(_finding(
                        "PET102", fn.module, sub, fn.qualname,
                        "lambda inside task arguments — task specs are "
                        "pickled before submission"))

    # interprocedural: everything reachable from a task body must stay
    # picklable-friendly and free of module-global mutable state.
    for qual in sorted(program.reachable_from(task_roots)):
        body = program.functions[qual]
        local_names = _assigned_names(body.node)
        reported: Set[str] = set()
        for node in ast.walk(body.node):
            if isinstance(node, ast.Global):
                for name in node.names:
                    if name in body.module.mutable_globals \
                            and name not in reported:
                        reported.add(name)
                        findings.append(_finding(
                            "PET102", body.module, node, body.qualname,
                            f"task-reachable code declares `global {name}` "
                            "over module-global mutable state — worker "
                            "results would depend on process history"))
            elif isinstance(node, ast.Name) \
                    and node.id in body.module.mutable_globals \
                    and node.id not in local_names \
                    and node.id not in reported:
                reported.add(node.id)
                findings.append(_finding(
                    "PET102", body.module, node, body.qualname,
                    f"task-reachable `{body.name}` captures module-global "
                    f"mutable `{node.id}` — state diverges between serial "
                    "and worker execution"))
        for cs in body.calls:
            if cs.callee is None:
                continue
            for arg in cs.node.args:
                if isinstance(arg, ast.Lambda):
                    findings.append(_finding(
                        "PET102", body.module, arg, body.qualname,
                        f"closure created on a task path and passed into "
                        f"`{_basename(cs.callee)}` — promote to a "
                        "top-level callable (functools.partial)"))
    return findings


def _assigned_names(fn_node: ast.AST) -> Set[str]:
    out: Set[str] = set()
    for node in ast.walk(fn_node):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node is not fn_node:
            out.add(node.name)
            for a in (list(node.args.posonlyargs) + list(node.args.args)
                      + list(node.args.kwonlyargs)):
                out.add(a.arg)
        elif isinstance(node, ast.arg):
            out.add(node.arg)
    return out


# =========================================================================
# PET104 — iteration-order nondeterminism
# =========================================================================

_DICT_VIEWS = frozenset({"items", "keys", "values"})
_ORDER_ROOT_NAMES = frozenset({"write_jsonl", "write_csv", "snapshot",
                               "summary", "merge"})


def _order_roots(program: Program) -> Set[str]:
    roots: Set[str] = set()
    for fn in program.functions.values():
        parts = Path(fn.module.pkg_path).parts
        if fn.cls == "Engine":
            roots.add(fn.qualname)
        elif "fingerprint" in fn.name or fn.name == "_feed":
            roots.add(fn.qualname)
        elif fn.name in _ORDER_ROOT_NAMES and (
                "obs" in parts or (fn.cls or "").endswith("Registry")
                or "export" in Path(fn.module.pkg_path).stem):
            roots.add(fn.qualname)
    return roots


def _set_typed_locals(fn: FunctionInfo) -> Set[str]:
    out: Set[str] = set()
    for node in ast.walk(fn.node):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            v = node.value
            is_set = isinstance(v, (ast.Set, ast.SetComp)) or (
                isinstance(v, ast.Call) and isinstance(v.func, ast.Name)
                and v.func.id in ("set", "frozenset"))
            if is_set:
                out.add(node.targets[0].id)
    return out


def _unsorted_iterable(expr: ast.expr, set_locals: Set[str]) -> Optional[str]:
    """Describe the nondeterministic iterable, or None if acceptable."""
    if isinstance(expr, ast.Call):
        fname = expr.func
        if isinstance(fname, ast.Name):
            if fname.id in ("sorted", "enumerate", "reversed", "list",
                            "tuple", "zip"):
                if fname.id == "sorted":
                    return None
                # enumerate(d.items()) etc. — look through one level
                if expr.args:
                    return _unsorted_iterable(expr.args[0], set_locals)
                return None
        if isinstance(fname, ast.Attribute) and fname.attr in _DICT_VIEWS:
            return f".{fname.attr}() view"
    if isinstance(expr, ast.Name) and expr.id in set_locals:
        return f"set `{expr.id}`"
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return "set expression"
    return None


def rule_pet104(program: Program) -> List[Finding]:
    findings: List[Finding] = []
    reachable = program.reachable_from(_order_roots(program))
    for qual in sorted(reachable):
        fn = program.functions[qual]
        set_locals = _set_typed_locals(fn)
        for node in ast.walk(fn.node):
            iters: List[ast.expr] = []
            if isinstance(node, ast.For):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                # sorted(x for x in d.items()) is order-stable: the wrapper
                # absorbs whatever order the generator produces.
                parent = fn.module.parent_of(node)
                if isinstance(parent, ast.Call) \
                        and isinstance(parent.func, ast.Name) \
                        and parent.func.id == "sorted":
                    continue
                iters.extend(g.iter for g in node.generators)
            for it in iters:
                if program.function_at(fn.module, it) is not fn:
                    continue
                desc = _unsorted_iterable(it, set_locals)
                if desc is not None:
                    findings.append(_finding(
                        "PET104", fn.module, it, fn.qualname,
                        f"iteration over {desc} on a merge/fingerprint/"
                        "export path — wrap in sorted(...) to stabilize "
                        "order"))
    return findings


# =========================================================================
# PET105 — zero-overhead telemetry
# =========================================================================

_OBS_MUTATORS = frozenset({"inc", "observe", "set_gauge", "event"})
_OBS_GETTERS = frozenset({"get_registry", "get_tracer", "enable"})
_OBS_RECEIVER_NAMES = frozenset({"reg", "registry", "tracer"})
_CHEAP_CALLS = frozenset({"len", "int", "float", "str", "bool", "round",
                          "abs", "min", "max", "repr", "getattr"})


def _is_obs_mutation(fn: FunctionInfo, cs: CallSite,
                     reg_locals: Set[str]) -> bool:
    func = cs.node.func
    if not isinstance(func, ast.Attribute) or func.attr not in _OBS_MUTATORS:
        return False
    recv = func.value
    if isinstance(recv, ast.Name):
        return recv.id in reg_locals or recv.id in _OBS_RECEIVER_NAMES
    if isinstance(recv, ast.Call):
        dotted = resolve_dotted(fn.module, recv.func) or ""
        return _basename(dotted) in _OBS_GETTERS
    return False


def _eager(expr: ast.expr) -> bool:
    if isinstance(expr, ast.JoinedStr):
        return any(isinstance(v, ast.FormattedValue) for v in expr.values)
    if isinstance(expr, (ast.ListComp, ast.SetComp, ast.DictComp,
                         ast.GeneratorExp)):
        return True
    if isinstance(expr, ast.Call):
        name = expr.func.id if isinstance(expr.func, ast.Name) else (
            expr.func.attr if isinstance(expr.func, ast.Attribute) else "")
        if name in _CHEAP_CALLS:
            return any(_eager(a) for a in expr.args)
        return True
    if isinstance(expr, ast.BinOp):
        if isinstance(expr.op, ast.Mod) and isinstance(
                expr.left, ast.Constant) and isinstance(expr.left.value, str):
            return True      # "..." % (...) string formatting
        return _eager(expr.left) or _eager(expr.right)
    if isinstance(expr, (ast.Dict,)):
        return any(v is not None and _eager(v)
                   for v in list(expr.keys) + list(expr.values))
    if isinstance(expr, (ast.Tuple, ast.List)):
        return any(_eager(v) for v in expr.elts)
    return False


def _guard_names(test: ast.expr) -> Set[str]:
    """Names/getters whose truthiness the If test asserts."""
    out: Set[str] = set()
    if isinstance(test, ast.Name):
        out.add(test.id)
    elif isinstance(test, ast.Call):
        name = test.func.id if isinstance(test.func, ast.Name) else (
            test.func.attr if isinstance(test.func, ast.Attribute) else "")
        if name in _OBS_GETTERS or name == "enabled":
            out.add("<obs>")
    elif isinstance(test, ast.BoolOp):
        for v in test.values:
            out.update(_guard_names(v))
    return out


def _is_guarded(fn: FunctionInfo, call: ast.Call,
                reg_locals: Set[str]) -> bool:
    watched = reg_locals | _OBS_RECEIVER_NAMES | {"<obs>"}
    for anc in fn.module.ancestors(call):
        if isinstance(anc, ast.If) and _guard_names(anc.test) & watched:
            return True
        if anc is fn.node:
            break
    # early-return guard: `if not reg: return` earlier in the body
    body = getattr(fn.node, "body", [])
    for stmt in body:
        if getattr(stmt, "lineno", 10**9) >= getattr(call, "lineno", 0):
            break
        if isinstance(stmt, ast.If) and isinstance(stmt.test, ast.UnaryOp) \
                and isinstance(stmt.test.op, ast.Not) \
                and _guard_names(stmt.test.operand) & watched \
                and any(isinstance(s, ast.Return) for s in stmt.body):
            return True
    return False


def rule_pet105(program: Program) -> List[Finding]:
    findings: List[Finding] = []
    for fn in program.functions.values():
        reg_locals = _locals_bound_to(fn, _OBS_GETTERS)
        for cs in fn.calls:
            if not _is_obs_mutation(fn, cs, reg_locals):
                continue
            eager_args = [a for a in list(cs.node.args)
                          + [kw.value for kw in cs.node.keywords]
                          if _eager(a)]
            if eager_args and not _is_guarded(fn, cs.node, reg_locals):
                findings.append(_finding(
                    "PET105", fn.module, eager_args[0], fn.qualname,
                    "eager computation in a telemetry argument runs even "
                    "when telemetry is disabled — guard with `if reg:` / "
                    "`enabled()` or precompute cheaply"))
    return findings


# =========================================================================
# driver
# =========================================================================

Rule = Callable[[Program], List[Finding]]


def _per_module(rule_id: str,
                check: Callable[[ModuleInfo], _Hits]) -> Rule:
    """Lift a per-module check to a rule over every parsed module; each
    hit's symbol is its enclosing function, else the module."""
    def rule(program: Program) -> List[Finding]:
        findings = []
        for module in program.modules:
            for node, message in check(module):
                fn = program.function_at(module, node)
                symbol = fn.qualname if fn is not None else module.modname
                findings.append(_finding(rule_id, module, node, symbol,
                                         message))
        return findings
    return rule


#: rule id -> rule; ``RULES`` describes exactly these ids.
_REGISTRY: Dict[str, Rule] = {
    "PET001": _per_module("PET001", _pet001),
    "PET002": _per_module("PET002", _pet002),
    "PET003": _per_module("PET003", _pet003),
    "PET004": _per_module("PET004", _pet004),
    "PET005": _per_module("PET005", _pet005),
    "PET006": _per_module("PET006", _pet006),
    "PET007": _per_module("PET007", _pet007),
    "PET101": rule_pet101,
    "PET102": rule_pet102,
    "PET104": rule_pet104,
    "PET105": rule_pet105,
}


def _suppressed_rules(line_text: str) -> Optional[Set[str]]:
    """Rules silenced by a ``# pet: noqa`` directive on this line.

    Returns ``None`` when there is no directive, the empty set for a
    bare ``# pet: noqa`` (silence everything), or the set of rule ids
    for ``# pet: noqa-PET001,PET004``.
    """
    m = _NOQA_RE.search(line_text)
    if m is None:
        return None
    rules = m.group("rules")
    if not rules:
        return set()
    return {r.strip().upper() for r in rules.split(",")}


def _noqa_filtered(program: Program,
                   findings: Iterable[Finding]) -> List[Finding]:
    by_path = {m.path: m for m in program.modules}
    out = []
    for f in findings:
        suppressed = _suppressed_rules(by_path[f.path].line_text(f.line))
        if suppressed is not None and (not suppressed
                                       or f.rule in suppressed):
            continue
        out.append(f)
    return out


def analyze_paths(paths: Sequence[str], *,
                  select: Optional[Iterable[str]] = None) -> List[Finding]:
    """Parse ``paths`` into one :class:`Program` and run the selected
    rules (default: all) over it."""
    program = build_program(paths)
    sel = {s.upper() for s in select} if select is not None else None
    findings: List[Finding] = []
    for rule_id, rule in _REGISTRY.items():
        if sel is None or rule_id in sel:
            findings.extend(rule(program))
    findings = _noqa_filtered(program, findings)
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule))
