"""Whole-program static cache-safety analysis and semantic code fingerprints.

The repo's reproducibility story has two dynamic layers (the runtime MPI
sanitizer and the byte-identity CI guards) and, until now, one *per-file*
static layer (``repro lint``).  This module adds the whole-program layer
that the content-addressed result cache (ROADMAP item 1) requires:

* **Module index** — :class:`ModuleIndex` parses a module under a
  package root with the stdlib :mod:`ast` (nothing is imported) only
  when resolution reaches it, and keeps a summary: its top-level
  definitions (functions, classes, assignments) with their outgoing
  references, import bindings, worker registrations and line spans.
  The AST itself is dropped.
* **Call-graph closure** — starting from a registered cell worker
  (``@cell_worker`` in :mod:`repro.harness.parallel`), name and
  attribute references are resolved through import bindings — including
  function-local imports, re-exports and relative imports — into the
  transitive set of definitions the worker can reach.
* **Semantic fingerprints** — each definition is hashed over a canonical
  AST dump with docstrings stripped, so the fingerprint is invariant
  under comments, docstrings and formatting but changes with any
  semantic edit.  A definition is hashed only when a closure needs it,
  and at most once per index.  Folding the sorted per-definition hashes
  over a worker's closure yields its ``code fingerprint``: the cache/journal
  key component that ties a stored result to the exact code that
  produced it (``repro fingerprint``, journal format v2 —
  :mod:`repro.harness.journal`).
* **Interprocedural hazard propagation** — the deep linter rules
  (DET007–DET011, :mod:`repro.analysis.lint`) run over every module a
  worker reaches, and each finding is attributed to the workers whose
  closure contains it; DET001–DET006 stay covered by the per-file scan
  that ``repro lint --deep`` also performs.
* **Reporting & gating** — :class:`StaticReport` renders as text, JSON
  or SARIF 2.1.0, and :func:`new_findings` gates against a committed
  baseline so CI fails only on findings that are actually new.

The analysis is deliberately conservative: a reference it cannot resolve
(builtins, third-party modules, true dynamic dispatch) is ignored, and a
reference that *might* hit a definition (e.g. a class looked up through
a registry dict literal) pulls the whole definition into the closure.
Over-approximating the closure can only make fingerprints more
sensitive, never stale — the safe direction for a cache key.
"""

from __future__ import annotations

import ast
import collections
import dataclasses
import functools
import hashlib
import json
import pathlib
import re
import typing as _t

from repro.analysis.lint import (
    DEEP_RULES,
    LintFinding,
    lint_source,
)
from repro.errors import ConfigError

#: Width of every fingerprint this module mints (hex chars of SHA-256).
FINGERPRINT_WIDTH = 32

#: Resolution depth cap for re-export chains (``from .x import y`` hops).
_MAX_HOPS = 16

#: A decorator line naming ``cell_worker``: only files with one are
#: parsed to discover workers.
_REGISTRATION = re.compile(r"^[ \t]*@[^\n]*\bcell_worker\b", re.M)


# ---------------------------------------------------------------------------
# Module index
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True, slots=True)
class Definition:
    """One top-level definition (function, class, assignment) or method.

    A summary, not the AST: the outgoing references the closure walk
    resolves are recorded once, when the module is indexed.  References
    are kept as one newline-separated string of dotted names (``a.b.c``),
    far smaller than a tuple of tuples.
    """

    module: str     #: dotted module name, e.g. ``repro.harness.parallel``
    qualname: str   #: ``name`` or ``Class.method``
    is_class: bool
    lines: tuple[int, int]  #: lines that re-parse into the same statement
    refs: str       #: dotted names loaded anywhere inside
    bases: str      #: dotted class bases (classes only)
    scope: tuple[tuple[str, tuple[str, str | None]], ...]  #: local imports

    @property
    def key(self) -> tuple[str, str]:
        return (self.module, self.qualname)


#: Import binding: local alias -> (module, attribute-or-None).
_Bindings = dict[str, tuple[str, str | None]]


@dataclasses.dataclass(slots=True)
class _Module:
    """Summary of one parsed module; a file that does not parse has no
    definitions, imports or workers."""

    name: str
    path: pathlib.Path
    is_package: bool
    digest: str     #: sha256 of the indexed source (guards re-parsing)
    defs: dict[str, Definition] = dataclasses.field(default_factory=dict)
    imports: _Bindings = dataclasses.field(default_factory=dict)
    workers: dict[str, str] = dataclasses.field(default_factory=dict)
    spans: tuple[tuple[int, int, str], ...] = ()  #: top-level def/class lines


def _import_bindings(
    stmts: _t.Iterable[ast.stmt], modname: str, is_package: bool
) -> _Bindings:
    """Alias map from ``import``/``from ... import`` statements."""
    out: _Bindings = {}
    for node in stmts:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    out[alias.asname] = (alias.name, None)
                else:
                    root = alias.name.split(".")[0]
                    out[root] = (root, None)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                anchor = modname.split(".")
                if not is_package:
                    anchor = anchor[:-1]
                anchor = anchor[: len(anchor) - (node.level - 1)]
                if not anchor:
                    continue  # relative import escaping the package root
                base = ".".join(anchor + ([node.module] if node.module else []))
            else:
                base = node.module or ""
            if not base:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue  # cannot be resolved without importing
                out[alias.asname or alias.name] = (base, alias.name)
    return out


def _definition_nodes(tree: ast.Module) -> dict[str, tuple[ast.stmt, ast.stmt]]:
    """``{qualname: (top-level statement, defining statement)}``.

    A later function/class/method rebinds its name; an assignment only
    binds a name nothing bound before.
    """
    out: dict[str, tuple[ast.stmt, ast.stmt]] = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out[stmt.name] = (stmt, stmt)
        elif isinstance(stmt, ast.ClassDef):
            out[stmt.name] = (stmt, stmt)
            for sub in stmt.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    out[f"{stmt.name}.{sub.name}"] = (stmt, sub)
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    out.setdefault(target.id, (stmt, stmt))
        elif isinstance(stmt, ast.AnnAssign):
            if isinstance(stmt.target, ast.Name) and stmt.value is not None:
                out.setdefault(stmt.target.id, (stmt, stmt))
    return out


def _first_line(stmt: ast.stmt) -> int:
    """First line of ``stmt``, decorators included."""
    return min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", ())])


def _summarize(
    name: str, path: pathlib.Path, is_package: bool, source: str
) -> _Module:
    """Index one module in a single pass; the AST is dropped on return."""
    mod = _Module(name, path, is_package, _digest(source))
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError:
        return mod
    mod.imports = _import_bindings(tree.body, name, is_package)
    spans = []
    for stmt in tree.body:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
            continue
        spans.append((_first_line(stmt), stmt.end_lineno or stmt.lineno,
                      stmt.name))
        if isinstance(stmt, ast.ClassDef):
            continue
        for deco in stmt.decorator_list:
            if (
                isinstance(deco, ast.Call)
                and (_dotted_name(deco.func) or "").rpartition(".")[2]
                == "cell_worker"
                and deco.args
                and isinstance(deco.args[0], ast.Constant)
                and isinstance(deco.args[0].value, str)
            ):
                mod.workers[deco.args[0].value] = stmt.name
    mod.spans = tuple(spans)
    whole = (1, source.count("\n") + 1)
    for qualname, (top, node) in _definition_nodes(tree).items():
        refs, local_imports = _scan(node)
        is_class = isinstance(node, ast.ClassDef)
        mod.defs[qualname] = Definition(
            module=name,
            qualname=qualname,
            is_class=is_class,
            # A statement that starts a line parses on its own; one after
            # a ``;`` is re-parsed with its whole module.
            lines=(
                (_first_line(top), top.end_lineno or top.lineno)
                if top.col_offset == 0 else whole
            ),
            refs="\n".join(refs),
            bases="\n".join(
                b for b in map(_dotted_name, node.bases) if b
            ) if is_class else "",
            scope=tuple(_import_bindings(
                local_imports, name, is_package).items()),
        )
    return mod


def _scan(node: ast.AST) -> tuple[dict[str, None], list[ast.stmt]]:
    """Dotted names loaded under ``node`` and the imports it contains.

    Visits nodes in :func:`ast.walk` order, so a later local import of
    the same alias wins exactly as it did when the index held the AST.
    """
    refs: dict[str, None] = {}
    imports: list[ast.stmt] = []
    todo = collections.deque((node,))
    pop, push = todo.popleft, todo.append
    while todo:
        sub = pop()
        cls = type(sub)
        if cls is ast.Name:
            if type(sub.ctx) is ast.Load:
                refs[sub.id] = None
            continue
        if cls is ast.Attribute:
            dotted = _dotted_name(sub)
            if dotted:
                refs[dotted] = None
        elif cls is ast.Import or cls is ast.ImportFrom:
            imports.append(sub)
            continue
        for name, _optional in _fields(cls):
            value = getattr(sub, name, None)
            if isinstance(value, ast.AST):
                push(value)
            elif isinstance(value, list):
                for item in value:
                    if isinstance(item, ast.AST):
                        push(item)
    return refs, imports


def _digest(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def _read(path: pathlib.Path) -> str:
    return path.read_text(encoding="utf-8", errors="replace")


@functools.cache
def _fields(cls: type) -> tuple[tuple[str, bool], ...]:
    """``(field, omitted when None)`` of an AST class, in ``_fields`` order."""
    return tuple((f, getattr(cls, f, ...) is None) for f in cls._fields)


class _ModuleTable(_t.Mapping[str, _Module]):
    """Every module under the root by dotted name, summarized on first use.

    Resolution only ever touches the modules a closure reaches, so most
    of the package is never parsed for a fingerprint.
    """

    def __init__(self, files: dict[str, tuple[pathlib.Path, bool]]) -> None:
        self._files = files
        self._loaded: dict[str, _Module] = {}

    def __getitem__(self, name: str) -> _Module:
        mod = self._loaded.get(name)
        if mod is None:
            path, is_package = self._files[name]
            mod = self._loaded[name] = _summarize(
                name, path, is_package, _read(path))
        return mod

    def __contains__(self, name: object) -> bool:
        return name in self._files

    def __iter__(self) -> _t.Iterator[str]:
        return iter(self._files)

    def __len__(self) -> int:
        return len(self._files)

    def forget(self) -> None:
        """Drop every summary; modules are parsed again when next used."""
        self._loaded.clear()

    def path(self, name: str) -> pathlib.Path:
        return self._files[name][0]


class ModuleIndex:
    """Summary index of every module under one package root.

    ``root`` is the package directory (default: the installed
    :mod:`repro` package) and ``package`` its dotted import name.  The
    index never imports the code it describes and holds no AST: a
    module is parsed when resolution first reaches it and summarized
    (definitions with their outgoing references, import bindings,
    worker registrations, top-level line spans).  Resolved edges and
    definition hashes are memoized on the instance until
    :meth:`worker_closures` has fingerprinted every worker; from then
    on only the closures are kept.
    """

    def __init__(
        self,
        root: str | pathlib.Path | None = None,
        package: str | None = None,
    ) -> None:
        if root is None:
            import repro

            root = pathlib.Path(repro.__file__).parent
            package = package or "repro"
        self.root = pathlib.Path(root)
        if not self.root.is_dir():
            raise ConfigError(f"package root {self.root} is not a directory")
        self.package = package or self.root.name
        self.modules = _ModuleTable(self._discover())
        self.hashes_computed = 0
        self._hashes: dict[tuple[str, str], str] = {}
        self._edge_memo: dict[tuple[str, str], tuple[Definition, ...]] = {}
        self._closures: dict[str, WorkerClosure] | None = None
        self._failure: str | None = None
        self._workers: dict[str, Definition] | None = None

    _default: _t.ClassVar["ModuleIndex | None"] = None

    @classmethod
    def default(cls) -> "ModuleIndex":
        """The cached index over the installed :mod:`repro` package."""
        if cls._default is None:
            cls._default = cls()
        return cls._default

    @classmethod
    def reset_default(cls) -> None:
        """Drop the cached default index and every memo built on it."""
        cls._default = None

    # -- construction ------------------------------------------------------
    def _discover(self) -> dict[str, tuple[pathlib.Path, bool]]:
        """``{module name: (path, is_package)}``; dot-directories and
        ``__pycache__`` below the root are skipped, whatever the root's
        own path looks like."""
        files: dict[str, tuple[pathlib.Path, bool]] = {}
        for path in sorted(self.root.rglob("*.py")):
            rel = path.relative_to(self.root)
            if any(p.startswith(".") or p == "__pycache__" for p in rel.parts):
                continue
            parts = [self.package] + list(rel.parts[:-1])
            is_package = rel.name == "__init__.py"
            if not is_package:
                parts.append(rel.stem)
            files[".".join(parts)] = (path, is_package)
        return files

    # -- resolution --------------------------------------------------------
    def resolve_path(
        self, module: str, parts: _t.Sequence[str], _hops: int = 0
    ) -> Definition | None:
        """Resolve ``module`` + attribute ``parts`` to a definition.

        Walks submodule prefixes, module definitions and re-export
        bindings (bounded by ``_MAX_HOPS``); returns ``None`` for
        anything outside the index.
        """
        if _hops > _MAX_HOPS:
            return None
        parts = list(parts)
        mod = self.modules.get(module)
        while parts:
            name = parts[0]
            if mod is not None:
                d = mod.defs.get(name)
                if d is not None:
                    if len(parts) >= 2 and d.is_class:
                        meth = mod.defs.get(f"{name}.{parts[1]}")
                        return meth or d
                    return d
                binding = mod.imports.get(name)
                if binding is not None:
                    bmod, battr = binding
                    nparts = ([battr] if battr else []) + parts[1:]
                    return self.resolve_path(bmod, nparts, _hops + 1)
            sub = f"{module}.{name}"
            if sub in self.modules:
                module, mod = sub, self.modules[sub]
                parts = parts[1:]
                continue
            return None
        return None  # a bare module reference, not a definition

    def resolve_dotted(
        self,
        mod: _Module,
        scope: _Bindings,
        dotted: tuple[str, ...],
        owner_class: str | None = None,
    ) -> Definition | None:
        """Resolve a dotted reference seen inside ``mod``.

        ``scope`` holds function-local import bindings layered over the
        module's; ``owner_class`` enables ``self.method`` resolution.
        """
        head = dotted[0]
        if head in ("self", "cls") and owner_class is not None and len(dotted) > 1:
            return mod.defs.get(f"{owner_class}.{dotted[1]}")
        binding = scope.get(head) or mod.imports.get(head)
        if binding is not None:
            bmod, battr = binding
            parts = ([battr] if battr else []) + list(dotted[1:])
            return self.resolve_path(bmod, parts)
        d = mod.defs.get(head)
        if d is not None:
            if len(dotted) >= 2 and d.is_class:
                return mod.defs.get(f"{head}.{dotted[1]}") or d
            return d
        return None

    # -- worker discovery --------------------------------------------------
    def workers(self) -> dict[str, Definition]:
        """Registered cell workers: ``{name: defining function}``.

        Discovery is static: any top-level function decorated with
        ``@cell_worker("name")`` anywhere in the package counts, exactly
        mirroring the runtime registry that
        :func:`repro.harness.parallel.cell_worker` builds on import.
        Only files with a decorator line naming ``cell_worker`` are
        parsed here; a registration spelled otherwise goes unseen, and
        its worker is simply never cached (``worker_fingerprint`` is
        ``None``, which the store banner reports).
        """
        if self._workers is None:
            out: dict[str, Definition] = {}
            for modname in sorted(self.modules):
                if not _REGISTRATION.search(_read(self.modules.path(modname))):
                    continue
                mod = self.modules[modname]
                for worker, qualname in mod.workers.items():
                    out[worker] = mod.defs[qualname]
            self._workers = out
        return self._workers

    # -- closure -----------------------------------------------------------
    def closure(self, roots: _t.Sequence[Definition]) -> list[Definition]:
        """Transitive definitions reachable from ``roots`` (sorted)."""
        seen: dict[tuple[str, str], Definition] = {}
        stack = list(roots)
        while stack:
            d = stack.pop()
            if d.key in seen:
                continue
            seen[d.key] = d
            stack.extend(self._edges(d))
        return [seen[k] for k in sorted(seen)]

    def _edges(self, d: Definition) -> tuple[Definition, ...]:
        """Definitions ``d`` references directly (memoized, sorted)."""
        found = self._edge_memo.get(d.key)
        if found is not None:
            return found
        mod = self.modules[d.module]
        scope = dict(d.scope)
        owner_class: str | None = None
        if d.is_class:
            owner_class = d.qualname
        elif "." in d.qualname:
            owner_class = d.qualname.split(".", 1)[0]
        out: dict[tuple[str, str], Definition] = {}
        for refs, owner in ((d.refs, owner_class), (d.bases, None)):
            for dotted in refs.split("\n") if refs else ():
                target = self.resolve_dotted(
                    mod, scope, tuple(dotted.split(".")), owner)
                if target is not None and target.key != d.key:
                    out[target.key] = target
        found = self._edge_memo[d.key] = tuple(out[k] for k in sorted(out))
        return found

    # -- hashing -----------------------------------------------------------
    def definition_hashes(
        self, defs: _t.Iterable[Definition]
    ) -> dict[tuple[str, str], str]:
        """:func:`definition_fingerprint` of each of ``defs``, by key.

        Each definition is hashed at most once per index.  Hashing
        re-parses only the top-level statements that hold ``defs``, one
        at a time; a module whose file changed since it was indexed
        raises :class:`~repro.errors.ConfigError` rather than mixing two
        versions of the code into one fingerprint.
        """
        defs = list(defs)
        missing: dict[str, list[str]] = {}
        for d in defs:
            if d.key not in self._hashes:
                missing.setdefault(d.module, []).append(d.qualname)
        for modname in sorted(missing):
            mod = self.modules[modname]
            source = _read(mod.path)
            if _digest(source) != mod.digest:
                raise ConfigError(f"{mod.path} changed since it was indexed")
            lines = source.split("\n")
            statements: dict[tuple[int, int], list[str]] = {}
            for qualname in missing[modname]:
                statements.setdefault(mod.defs[qualname].lines, []).append(qualname)
            for (first, last), qualnames in sorted(statements.items()):
                try:
                    nodes = _definition_nodes(
                        ast.parse("\n".join(lines[first - 1:last])))
                except SyntaxError:  # its last line runs on into the next
                    nodes = _definition_nodes(ast.parse(source))
                # Methods first: a class's dump then reuses their text.
                dumps: dict[int, str] = {}
                for qualname in sorted(qualnames, key=lambda q: "." not in q):
                    node = nodes[qualname][1]
                    blob = _canonical_dump(node, dumps)
                    if "." in qualname:
                        dumps[id(node)] = blob
                    self._hashes[(modname, qualname)] = _hash_text(blob)
                    self.hashes_computed += 1
        return {d.key: self._hashes[d.key] for d in defs}

    # -- worker closures ---------------------------------------------------
    def worker_closures(self) -> dict[str, WorkerClosure]:
        """Closure and code fingerprint of every registered worker.

        Computed together on first use, since the workers share most of
        their definitions.  The summaries, edges and hashes are dropped
        afterwards: a process that forks cell workers once it has
        fingerprinted them should not hand them copies.  If a module
        changed since it was indexed, every call raises the same
        :class:`~repro.errors.ConfigError`.
        """
        if self._failure is not None:
            raise ConfigError(self._failure)
        if self._closures is None:
            closures: dict[str, WorkerClosure] = {}
            try:
                for worker, root in sorted(self.workers().items()):
                    defs = self.closure([root])
                    hashes = self.definition_hashes(defs)
                    closures[worker] = WorkerClosure(
                        worker=worker,
                        root=root.key,
                        fingerprint=fold_fingerprints(
                            (m, q, h) for (m, q), h in hashes.items()),
                        definitions=tuple(d.key for d in defs),
                        modules=tuple(sorted({d.module for d in defs})),
                    )
            except ConfigError as exc:
                self._failure = str(exc)
                raise
            self._closures = closures
            self.modules.forget()
            self._edge_memo.clear()
            self._hashes.clear()
        return self._closures


def _dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` expression -> ``'a.b.c'`` (None otherwise)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


# ---------------------------------------------------------------------------
# Semantic fingerprints
# ---------------------------------------------------------------------------

#: Nodes whose leading string statement is a docstring.
_DOC_OWNERS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Module)


def _is_docstring(stmt: ast.AST) -> bool:
    return (
        isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Constant)
        and isinstance(stmt.value.value, str)
    )


def _canonical_dump(node: ast.AST, methods: _t.Mapping[int, str] = {}) -> str:
    """``ast.dump(node, include_attributes=False)`` with every docstring
    left out, byte for byte, without copying or mutating ``node``.

    ``methods`` maps ``id()`` of function nodes already dumped to their
    text, which is reused instead of walking them again.
    """
    out: list[str] = []
    _dump_into(node, out.append, methods)
    return "".join(out)


def _dump_into(
    node: ast.AST, emit: _t.Callable[[str], None], methods: _t.Mapping[int, str]
) -> None:
    cls = type(node)
    if cls is ast.FunctionDef or cls is ast.AsyncFunctionDef:
        done = methods.get(id(node))
        if done is not None:
            emit(done)
            return
    emit(cls.__name__)
    emit("(")
    sep = ""
    for name, optional in _fields(cls):
        try:
            value = getattr(node, name)
        except AttributeError:
            continue
        if value is None and optional:
            continue
        emit(sep)
        sep = ", "
        emit(name)
        emit("=")
        if isinstance(value, ast.AST):
            _dump_into(value, emit, methods)
        elif isinstance(value, list):
            if (
                name == "body" and value
                and isinstance(node, _DOC_OWNERS)
                and _is_docstring(value[0])
            ):
                value = value[1:]
            emit("[")
            for i, item in enumerate(value):
                if i:
                    emit(", ")
                if isinstance(item, ast.AST):
                    _dump_into(item, emit, methods)
                else:
                    emit(repr(item))
            emit("]")
        else:
            emit(repr(value))
    emit(")")


def definition_fingerprint(node: ast.AST) -> str:
    """Canonical semantic hash of one definition.

    The hash is taken over :func:`ast.dump` without source locations and
    with docstrings stripped, so it is invariant under comments,
    docstrings, blank lines and formatting — but any change to the code
    itself (names, constants, structure, decorators, annotations)
    produces a different value.
    """
    return _hash_text(_canonical_dump(node))


def _hash_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:FINGERPRINT_WIDTH]


def fold_fingerprints(items: _t.Iterable[tuple[str, str, str]]) -> str:
    """Order-independent fold of ``(module, qualname, hash)`` triples."""
    lines = sorted(f"{m}:{q}={h}" for m, q, h in items)
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    return digest[:FINGERPRINT_WIDTH]


@dataclasses.dataclass(frozen=True, slots=True)
class WorkerClosure:
    """One worker's resolved call-graph closure and code fingerprint."""

    worker: str
    root: tuple[str, str]                    #: (module, qualname) of the worker fn
    fingerprint: str
    definitions: tuple[tuple[str, str], ...]  #: sorted (module, qualname) pairs
    modules: tuple[str, ...]                  #: sorted reachable modules

    def describe(self) -> str:
        return (
            f"{self.worker:<16} {self.fingerprint}  "
            f"({len(self.definitions)} definition(s), "
            f"{len(self.modules)} module(s))"
        )


def worker_closure(worker: str, index: ModuleIndex | None = None) -> WorkerClosure:
    """Closure + fingerprint for one registered worker."""
    closures = (index or ModuleIndex.default()).worker_closures()
    try:
        return closures[worker]
    except KeyError:
        raise ConfigError(
            f"unknown cell worker {worker!r}; statically registered: "
            f"{sorted(closures)}"
        ) from None


def worker_fingerprint(worker: str) -> str | None:
    """Code fingerprint of ``worker``, or ``None`` if it is not statically
    registered (e.g. a test-local worker defined outside the package).

    This is the journal/cache hook: ``None`` means "no code identity
    available", which the resume logic treats as "do not check" rather
    than "mismatch" — dynamic workers keep their pre-v2 behaviour.
    Closures are memoized on :meth:`ModuleIndex.default`, so the
    workers are analyzed once per process.
    """
    try:
        return worker_closure(worker).fingerprint
    except ConfigError:
        return None


# ---------------------------------------------------------------------------
# Deep analysis: closure-wide hazards, attributed to workers
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True, slots=True)
class StaticFinding:
    """One deep finding, attributed to the workers whose closure hits it."""

    path: str
    line: int
    col: int
    rule: str
    message: str
    workers: tuple[str, ...]

    def render(self) -> str:
        via = ", ".join(self.workers) if self.workers else "-"
        return (
            f"{self.path}:{self.line}:{self.col}: {self.rule} "
            f"{self.message} [workers: {via}]"
        )


@dataclasses.dataclass(frozen=True, slots=True)
class StaticReport:
    """Result of one whole-program analysis pass."""

    closures: tuple[WorkerClosure, ...]
    findings: tuple[StaticFinding, ...]

    @property
    def clean(self) -> bool:
        return not self.findings

    def render(self) -> str:
        modules = sorted({m for c in self.closures for m in c.modules})
        lines = [
            f"static analysis: {len(self.closures)} worker(s), "
            f"{len(modules)} module(s) in closure union",
        ]
        lines.extend(f"  {c.describe()}" for c in self.closures)
        if self.findings:
            lines.extend(f.render() for f in self.findings)
            lines.append(f"deep: {len(self.findings)} finding(s)")
        else:
            lines.append("deep: clean")
        return "\n".join(lines)

    def to_dict(self) -> dict[str, _t.Any]:
        return {
            "workers": [
                {
                    "worker": c.worker,
                    "fingerprint": c.fingerprint,
                    "root": list(c.root),
                    "definitions": len(c.definitions),
                    "modules": list(c.modules),
                }
                for c in self.closures
            ],
            "findings": [dataclasses.asdict(f) for f in self.findings],
        }


def analyze_workers(
    index: ModuleIndex | None = None,
    workers: _t.Sequence[str] | None = None,
) -> StaticReport:
    """Run the whole-program analysis over registered cell workers.

    Computes every requested worker's closure and fingerprint, deep-lints
    each module any closure touches (rules DET007–DET011 plus DET000 for
    unparsable files), and keeps a finding when its enclosing top-level
    definition — or the module body itself — is reachable, attributing
    it to the affected workers.
    """
    index = index or ModuleIndex.default()
    names = sorted(index.workers()) if workers is None else list(workers)
    closures = [worker_closure(w, index) for w in names]

    # module -> top-level qualname -> workers reaching it
    reach: dict[str, dict[str, set[str]]] = {}
    module_workers: dict[str, set[str]] = {}
    for c in closures:
        for modname, qualname in c.definitions:
            top = qualname.split(".", 1)[0]
            reach.setdefault(modname, {}).setdefault(top, set()).add(c.worker)
            module_workers.setdefault(modname, set()).add(c.worker)

    findings: list[StaticFinding] = []
    for modname in sorted(module_workers):
        mod = index.modules[modname]
        raw = lint_source(_read(mod.path), str(mod.path), deep=True)
        # DET012 rides along so a stale suppression of a deep rule in
        # reachable code is surfaced by `repro lint --deep` too.
        deep_raw = [
            f for f in raw
            if f.rule in DEEP_RULES or f.rule in ("DET000", "DET012")
        ]
        if not deep_raw:
            continue
        for f in deep_raw:
            owner = _owning_span(mod.spans, f.line)
            if owner is None:
                via = module_workers[modname]  # import-time module body
            else:
                via = reach[modname].get(owner, set())
                if not via:
                    continue  # inside a definition no worker reaches
            findings.append(StaticFinding(
                path=f.path, line=f.line, col=f.col, rule=f.rule,
                message=f.message, workers=tuple(sorted(via)),
            ))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return StaticReport(closures=tuple(closures), findings=tuple(findings))


def _owning_span(
    spans: _t.Sequence[tuple[int, int, str]], line: int
) -> str | None:
    for start, end, name in spans:
        if start <= line <= end:
            return name
    return None


# ---------------------------------------------------------------------------
# SARIF + baseline gating
# ---------------------------------------------------------------------------

def to_sarif(
    findings: _t.Sequence[LintFinding | StaticFinding],
    rules: _t.Mapping[str, str],
) -> dict[str, _t.Any]:
    """SARIF 2.1.0 document for ``findings`` (lint and/or deep)."""
    used = sorted({f.rule for f in findings})
    results = []
    for f in findings:
        message = f.message
        workers = getattr(f, "workers", ())
        if workers:
            message += f" [workers: {', '.join(workers)}]"
        results.append({
            "ruleId": f.rule,
            "level": "error",
            "message": {"text": message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": str(f.path).replace("\\", "/")},
                    "region": {
                        "startLine": max(f.line, 1),
                        "startColumn": max(f.col, 1),
                    },
                },
            }],
        })
    return {
        "$schema": (
            "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
            "Schemata/sarif-schema-2.1.0.json"
        ),
        "version": "2.1.0",
        "runs": [{
            "tool": {
                "driver": {
                    "name": "repro-lint",
                    "informationUri": "https://example.invalid/repro",
                    "rules": [
                        {
                            "id": rule,
                            "shortDescription": {"text": rules.get(rule, rule)},
                        }
                        for rule in used
                    ],
                },
            },
            "results": results,
        }],
    }


def load_baseline(path: str | pathlib.Path) -> set[tuple[str, str]]:
    """Load a committed findings baseline: ``{(path, rule), ...}``.

    The baseline intentionally ignores line numbers — a finding moves
    with unrelated edits; gating is on *new* ``(file, rule)`` pairs.
    """
    p = pathlib.Path(path)
    if not p.exists():
        raise ConfigError(f"baseline file not found: {p}")
    try:
        data = json.loads(p.read_text(encoding="utf-8"))
        rows = data["findings"] if isinstance(data, dict) else data
        return {(str(r["path"]), str(r["rule"])) for r in rows}
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ConfigError(f"malformed baseline {p}: {exc}") from None


def new_findings(
    findings: _t.Sequence[LintFinding | StaticFinding],
    baseline: set[tuple[str, str]],
) -> list[LintFinding | StaticFinding]:
    """Findings not covered by the committed baseline."""
    return [f for f in findings if (str(f.path), f.rule) not in baseline]
