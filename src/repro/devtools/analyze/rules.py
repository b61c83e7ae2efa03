"""Interprocedural dataflow rules PET101, PET102, PET104 and PET105.

Each rule is a function ``(Program, _Context) -> List[Finding]`` working
over the linked model from :mod:`repro.devtools.analyze.model`.  The
rules are deliberately conservative: an expression whose provenance
cannot be established statically stays *unknown* and is not reported —
only provably-bad flows fire, so every finding is actionable.  Accepted
exceptions live in the checked-in baseline, reviewed one by one.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.devtools.analyze.model import (CallSite, FunctionInfo, ModuleInfo,
                                          Program, build_program,
                                          resolve_dotted)
from repro.devtools.analyze.report import Finding
from repro.devtools.lint import _suppressed_rules

__all__ = ["RULES", "analyze_program", "analyze_paths"]

RULES: Dict[str, str] = {
    "PET101": "RNG provenance: ambient/unseeded Generator reaches simulation "
              "or training code (seed it or derive via parallel.seeding)",
    "PET102": "process-boundary safety: Engine task path uses a closure, "
              "nested/bound callable, or module-global mutable state",
    "PET104": "iteration-order nondeterminism: unsorted dict/set iteration "
              "on a merge/fingerprint/export path",
    "PET105": "zero-overhead telemetry: eager computation in obs arguments "
              "outside an enabled-telemetry guard",
}

#: path components marking simulator/training code (PET101 sinks).
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


def _join(*provs: str) -> str:
    return max(provs, key=lambda p: _ORDER[p]) if provs else _UNKNOWN


def _sim_scoped(module: ModuleInfo) -> bool:
    return bool(_SIM_SCOPE.intersection(Path(module.path).parts))


@dataclass
class _Context:
    """Shared analysis state handed to every rule."""

    select: Optional[Set[str]] = None
    #: interprocedural RNG provenance of (function qualname, param name).
    param_prov: Dict[Tuple[str, str], str] = field(default_factory=dict)


def _rel(path: str) -> str:
    try:
        return os.path.relpath(path)
    except ValueError:          # different drive (windows)
        return path


def _finding(rule: str, module: ModuleInfo, node: ast.AST, symbol: str,
             message: str) -> Finding:
    return Finding(rule=rule, path=_rel(module.path),
                   line=getattr(node, "lineno", 1),
                   col=getattr(node, "col_offset", 0),
                   symbol=symbol, message=message)


def _basename(dotted: Optional[str]) -> str:
    return dotted.rsplit(".", 1)[-1] if dotted else ""


# =========================================================================
# PET101 — RNG provenance
# =========================================================================

class _RngFlow:
    """Local + interprocedural provenance of Generator-valued expressions."""

    def __init__(self, program: Program, ctx: _Context) -> None:
        self.p = program
        self.ctx = ctx

    # -- seed-value provenance ---------------------------------------------
    def seed_prov(self, expr: ast.expr, fn: FunctionInfo,
                  env: Dict[str, str]) -> str:
        if isinstance(expr, ast.Constant):
            return _SEEDED if expr.value is not None else _UNKNOWN
        if isinstance(expr, ast.Name):
            if expr.id in env:
                return env[expr.id]
            if expr.id in fn.params:
                return self.ctx.param_prov.get((fn.qualname, expr.id),
                                               _UNKNOWN)
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
                return self.ctx.param_prov.get((fn.qualname, expr.id))
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
        if base == "default_rng" and ("random" in dotted
                                      or dotted == "default_rng"):
            if not expr.args and not expr.keywords:
                return _AMBIENT
            arg = expr.args[0] if expr.args else expr.keywords[0].value
            return self._seed_or_bitgen(arg, fn, env)
        if base == "RandomState" and "random" in dotted:
            if not expr.args and not expr.keywords:
                return _AMBIENT
            return self._seed_or_bitgen(expr.args[0] if expr.args
                                        else expr.keywords[0].value, fn, env)
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
                        old = self.ctx.param_prov.get(key)
                        new = _join(old, prov) if old else prov
                        if new != old:
                            self.ctx.param_prov[key] = new
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


def rule_pet101(program: Program, ctx: _Context) -> List[Finding]:
    flow = _RngFlow(program, ctx)
    flow.propagate_params()
    findings: List[Finding] = []
    for fn in program.functions.values():
        env = flow.local_env(fn)
        in_sim = _sim_scoped(fn.module)
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
            if not _sim_scoped(callee.module):
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


def _engine_locals(fn: FunctionInfo) -> Set[str]:
    """Local names bound to an Engine instance inside ``fn``."""
    out: Set[str] = set()
    for node in ast.walk(fn.node):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            dotted = resolve_dotted(fn.module, node.value.func) or ""
            if _basename(dotted) == "Engine":
                for t in node.targets:
                    if isinstance(t, ast.Name):
                        out.add(t.id)
    return out


def _submitted_callables(program: Program) -> List[
        Tuple[FunctionInfo, CallSite, ast.expr]]:
    """(submitting fn, call site, callable expr) for every submission."""
    out = []
    for fn in program.functions.values():
        engines = _engine_locals(fn)
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


def rule_pet102(program: Program, ctx: _Context) -> List[Finding]:
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
        parts = Path(fn.module.path).parts
        if fn.cls == "Engine":
            roots.add(fn.qualname)
        elif "fingerprint" in fn.name or fn.name == "_feed":
            roots.add(fn.qualname)
        elif fn.name in _ORDER_ROOT_NAMES and (
                "obs" in parts or (fn.cls or "").endswith("Registry")
                or "export" in Path(fn.module.path).stem):
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


def rule_pet104(program: Program, ctx: _Context) -> List[Finding]:
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


def _registry_locals(fn: FunctionInfo) -> Set[str]:
    out = set()
    for node in ast.walk(fn.node):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) \
                and isinstance(node.value, ast.Call):
            dotted = resolve_dotted(fn.module, node.value.func) or ""
            if _basename(dotted) in _OBS_GETTERS:
                out.add(node.targets[0].id)
    return out


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


def rule_pet105(program: Program, ctx: _Context) -> List[Finding]:
    findings: List[Finding] = []
    for fn in program.functions.values():
        reg_locals = _registry_locals(fn)
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

_ALL_RULES = {
    "PET101": rule_pet101,
    "PET102": rule_pet102,
    "PET104": rule_pet104,
    "PET105": rule_pet105,
}


def _noqa_filtered(program: Program,
                   findings: Iterable[Finding]) -> List[Finding]:
    by_path = {_rel(m.path): m for m in program.modules.values()}
    out = []
    for f in findings:
        module = by_path.get(f.path)
        if module is not None:
            suppressed = _suppressed_rules(module.line_text(f.line))
            if suppressed is not None and (not suppressed
                                           or f.rule in suppressed):
                continue
        out.append(f)
    return out


def analyze_program(program: Program, *,
                    select: Optional[Iterable[str]] = None) -> List[Finding]:
    """Run the PET100 rules over a built :class:`Program`."""
    sel = {s.upper() for s in select} if select is not None else None
    ctx = _Context(select=sel)
    findings: List[Finding] = []
    for rule_id, rule_fn in _ALL_RULES.items():
        if sel is not None and rule_id not in sel:
            continue
        findings.extend(rule_fn(program, ctx))
    findings = _noqa_filtered(program, findings)
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule))


def analyze_paths(paths: Sequence[str], *,
                  select: Optional[Iterable[str]] = None) -> List[Finding]:
    """Build the program model for ``paths`` and analyze it."""
    program = build_program(paths)
    return analyze_program(program, select=select)
