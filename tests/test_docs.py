"""Documentation rot checks.

Keeps README.md, docs/ARCHITECTURE.md, and ROADMAP.md honest:

* every relative markdown link must resolve to an existing file;
* every ``src/...``, ``tests/...``, or ``benchmarks/...`` path named
  in backticks must exist (trajectory JSONs are resolved against
  ``benchmarks/out/``);
* the documented quick-start anchors (tier-1 command, bench runner,
  CLI entry point) must still be real.

Runs in tier-1, and CI executes it as an explicit docs-check step, so
a doc can't silently outlive the code it describes.

The same static style guards the structural promises the docs make:
the reference implementations under ``src/repro/testing/`` are imported
by tests and benches only (and the reference join lives only there),
the engine never reads rows back as dicts (``Row.bindings``) outside
``Row`` itself, a plan is walked — and a failed unit demoted — in one
place, it is compiled in one place (a plan-cache hit builds nothing),
the optimizer folds its search states and builds only the plan that
leaves, there is one join, one plan-cache disk tier and one SQLite connection
pool, the constructors, configs and serving commands take exactly the
parameters recorded here, the paper is reproduced — and a perf
trajectory written — in one place, every production module is
reachable from an entry point, every name has one import path (a
sub-package ``__init__`` re-exports nothing) and is named somewhere
besides its definition, and the production tree's code lines are
pinned.
"""

from __future__ import annotations

import ast
import collections
import importlib
import inspect
import pathlib
import re
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
DOCS = ["README.md", "docs/ARCHITECTURE.md", "ROADMAP.md"]

_LINK = re.compile(r"\[[^\]]+\]\(([^)#]+)(?:#[^)]*)?\)")
_CODE_PATH = re.compile(
    r"`((?:src|tests|benchmarks|docs|examples)/[A-Za-z0-9_./-]+"
    r"|[A-Za-z0-9_.-]+\.(?:py|md|json|yml|ini))`"
)


def _doc_paths():
    return [REPO / name for name in DOCS]


@pytest.mark.parametrize("doc", DOCS)
def test_doc_exists(doc):
    assert (REPO / doc).is_file(), f"{doc} is missing"


@pytest.mark.parametrize("doc", DOCS)
def test_relative_links_resolve(doc):
    path = REPO / doc
    text = path.read_text()
    broken = []
    for match in _LINK.finditer(text):
        target = match.group(1).strip()
        if "://" in target or target.startswith("mailto:"):
            continue
        resolved = (path.parent / target).resolve()
        if not resolved.exists():
            broken.append(target)
    assert not broken, f"{doc}: broken relative links: {broken}"


def _repo_basenames() -> set[str]:
    names = set()
    for top in ("src", "tests", "benchmarks", "docs", "examples"):
        for found in (REPO / top).rglob("*"):
            if found.is_file():
                names.add(found.name)
    names.update(p.name for p in REPO.iterdir() if p.is_file())
    return names


@pytest.mark.parametrize("doc", DOCS)
def test_backtick_file_references_exist(doc):
    path = REPO / doc
    text = path.read_text()
    basenames = _repo_basenames()
    missing = []
    for match in _CODE_PATH.finditer(text):
        reference = match.group(1).rstrip("/")
        candidates = [
            REPO / reference,
            REPO / "benchmarks" / "out" / reference,
        ]
        if any(candidate.exists() for candidate in candidates):
            continue
        # Bare filenames (`engine.py`) are contextual references: they
        # must at least name a file that exists somewhere in the tree.
        if "/" not in reference and reference in basenames:
            continue
        missing.append(reference)
    assert not missing, f"{doc}: dangling file references: {missing}"


def test_quickstart_anchors_are_real():
    readme = (REPO / "README.md").read_text()
    assert "PYTHONPATH=src python -m pytest -x -q" in readme
    assert "benchmarks/run_bench.py" in readme
    assert "python -m repro" in readme
    assert (REPO / "src" / "repro" / "__main__.py").is_file()
    assert (REPO / "benchmarks" / "run_bench.py").is_file()


def test_architecture_covers_the_subsystems():
    """ARCHITECTURE.md is the current system in pipeline order: each
    layer's section holds its anchor, sections come in the order a
    request passes through them, and no heading is a PR number
    (history lives in CHANGES.md)."""
    architecture = (REPO / "docs" / "ARCHITECTURE.md").read_text()
    sections = re.split(r"^## ", architecture, flags=re.M)[1:]
    titles = [section.split("\n", 1)[0] for section in sections]
    anchors = (
        ("The pipeline at a glance", "src/repro/model/"),
        ("Serving layer", "query fingerprint"),
        ("Plan cache", "src/repro/serving/sqlite_cache.py"),
        ("Optimizer", "src/repro/optimizer/memo.py"),
        ("The execution program", "Immutable after compile"),
        ("Walk and rounds", "Zero-drift contract"),
        ("The fetch seam", "src/repro/execution/fetch.py"),
        ("Rows and slot layouts", "SlotLayout"),
        ("Joins and streamed early exit", "Certificate invariant"),
        ("Lazy cursors", "rank floor"),
        ("Resilience", "src/repro/execution/resilience.py"),
        ("Mid-flight adaptivity", "src/repro/serving/breaker.py"),
        ("Service backends and provenance", "src/repro/services/sqlite.py"),
        ("Concurrency", "KeyedMutex"),
        ("Testing", "tests/test_property_joins.py"),
        ("Reproducing the paper and perf trajectories", "reproduce_paper()"),
    )
    assert len(titles) == len(anchors), titles
    for title, section, (prefix, anchor) in zip(titles, sections, anchors):
        assert title.startswith(prefix), f"expected {prefix!r}, found {title!r}"
        assert anchor in section, f"section {prefix!r} lost anchor: {anchor}"
    for anchor in ("src/repro/execution/joins.py", "src/repro/execution/lazy.py",
                   "BENCH_lazy.json", '{"history": [...]}', "env_stamp()"):
        assert anchor in architecture, f"ARCHITECTURE.md lost anchor: {anchor}"
    headings = re.findall(r"^#+ .*$", architecture, flags=re.M)
    assert not [h for h in headings if re.search(r"\bPR ?\d", h)], headings


# -- source-tree guards ------------------------------------------------------

SRC = REPO / "src" / "repro"


def _enclosing_scopes(tree: ast.AST):
    """``(node, names of the classes/functions around it)`` for a module."""
    stack: list[tuple[ast.AST, tuple[str, ...]]] = [(tree, ())]
    while stack:
        node, scopes = stack.pop()
        yield node, scopes
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scopes = scopes + (node.name,)
        stack.extend((child, scopes) for child in ast.iter_child_nodes(node))


def test_production_code_never_imports_the_testing_package():
    offenders = []
    for path in SRC.rglob("*.py"):
        if SRC / "testing" in path.parents:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            modules = []
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            if any(m == "repro.testing" or m.startswith("repro.testing.") for m in modules):
                offenders.append(f"{path.relative_to(REPO)}:{node.lineno}")
    assert not offenders, f"production modules importing repro.testing: {offenders}"


def _module_name(path: pathlib.Path) -> str:
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imported_names(path: pathlib.Path) -> set[str]:
    """Every dotted name *path* imports, function-level imports
    included; ``from a import b`` yields ``a`` and ``a.b``."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            assert node.level == 0, f"{path}: relative import"
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def _reached_modules() -> dict[str, pathlib.Path]:
    """The production modules an entry point imports, transitively:
    from the CLI, the serving layer, the paper's experiments and the
    examples.  Importing ``a.b.c`` runs the ``__init__`` of ``a.b``
    too, which imports nothing unless ``a.b`` is itself one of those
    surfaces (see the guard below); the top-level ``repro/__init__.py``
    is followed from nowhere — it imports the quick-start names, so
    through it their modules would count as reached whoever uses
    them."""
    modules = {_module_name(path): path for path in SRC.rglob("*.py")}
    pending = {"repro.__main__", "repro.serving", "repro.experiments"}
    for example in (REPO / "examples").glob("*.py"):
        pending |= _imported_names(example)
    reached: set[str] = set()
    while pending:
        parts = pending.pop().split(".")
        for depth in range(2, len(parts) + 1):
            name = ".".join(parts[:depth])
            if name in modules and name not in reached:
                reached.add(name)
                pending |= _imported_names(modules[name])
    return {name: modules[name] for name in reached}


def test_every_production_module_is_reachable_from_an_entry_point():
    """What ships is what the CLI, the serving layer, the paper's
    experiments or an example imports, transitively: a module under
    ``src/repro/`` that only tests and benches import belongs in
    ``testing/``."""
    reached = _reached_modules()
    # A package's ``__init__`` is reached exactly when one of its
    # modules is, so the modules proper are what is checked.
    orphans = {
        _module_name(path)
        for path in SRC.rglob("*.py")
        if path.name != "__init__.py"
        and _module_name(path) not in reached
        and not _module_name(path).startswith("repro.testing.")
    }
    assert not orphans, orphans


# The packages whose ``__init__`` is a surface: the quick-start names,
# the serving layer, the paper's experiments and the test instruments.
SURFACES = {"repro", "repro.serving", "repro.experiments", "repro.testing"}


def test_a_sub_package_init_is_its_docstring():
    """One import path per name: every other package ``__init__`` under
    ``src/repro/`` holds a docstring and nothing else, so nothing is
    re-exported a second way."""
    offenders = []
    for path in SRC.rglob("__init__.py"):
        tree = ast.parse(path.read_text())
        is_docstring = len(tree.body) == 1 and ast.get_docstring(tree) is not None
        if _module_name(path) not in SURFACES and not is_docstring:
            offenders.append(_module_name(path))
    assert not offenders, offenders


def test_no_package_attribute_shadows_a_submodule():
    """``repro.plans.annotate`` is the module, not a function a package
    ``__init__`` bound over it — for every module under ``src/repro/``."""
    import repro.model.query as query_module
    import repro.plans.annotate as annotate_module

    assert inspect.ismodule(query_module) and inspect.ismodule(annotate_module)
    shadowed = []
    for path in SRC.rglob("*.py"):
        name = _module_name(path)
        if "." not in name:
            continue
        importlib.import_module(name)
        parent, _, leaf = name.rpartition(".")
        if getattr(sys.modules[parent], leaf) is not sys.modules[name]:
            shadowed.append(name)
    assert not shadowed, shadowed


_DEFINITIONS = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
_SCOPES = (ast.Module, *_DEFINITIONS)


def _code_words(tree: ast.Module) -> list[str]:
    """The words of a module's code; comments and docstrings are prose."""
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            node.body[0] = ast.Pass()
    return re.findall(r"\w+", ast.unparse(tree))


def test_every_public_definition_is_named_elsewhere():
    """A public function, class or method under ``src/repro/`` that the
    code of the repository (``src/``, ``examples/``, ``tests/``,
    ``bench/``, ``benchmarks/``; a word-boundary scan) names nowhere
    but in its own definition is kept alive by nothing: delete it."""
    named = collections.Counter(
        word
        for top in ("src", "examples", "tests", "bench", "benchmarks")
        for path in (REPO / top).rglob("*.py")
        for word in _code_words(ast.parse(path.read_text()))
    )
    defined: dict[str, list[str]] = {}
    for path in SRC.rglob("*.py"):
        for node in ast.parse(path.read_text()).body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for definition in (node, *members):
                if isinstance(definition, _DEFINITIONS) and not definition.name.startswith("_"):
                    defined.setdefault(definition.name, []).append(
                        path.relative_to(SRC).as_posix()
                    )
    unnamed = {
        name: where for name, where in defined.items() if named[name] <= len(where)
    }
    assert not unnamed, unnamed


def test_every_execution_mode_is_chosen_where_an_entry_point_reaches():
    """An engine mode only tests select is a path nobody runs: every
    ``ExecutionMode`` member is named (``ExecutionMode.X``) by a module
    an entry point reaches, other than the engine that defines it."""
    from repro.execution.engine import ExecutionMode

    named = {
        node.attr
        for name, path in _reached_modules().items()
        if name != "repro.execution.engine"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
        and getattr(node.value, "id", "") == "ExecutionMode"
    }
    assert named == {mode.name for mode in ExecutionMode}


def test_rows_are_read_as_dicts_only_by_row():
    allowed = {("execution/results.py", "Row")}
    offenders = []
    for package in ("execution", "serving"):
        for path in (SRC / package).rglob("*.py"):
            relative = path.relative_to(SRC).as_posix()
            text = path.read_text()
            if "dict(zip(" in text and relative != "execution/results.py":
                offenders.append(f"{relative}: builds a dict row with dict(zip(")
            for node, scopes in _enclosing_scopes(ast.parse(text)):
                if isinstance(node, ast.Attribute) and node.attr == "bindings":
                    if (relative, scopes[0] if scopes else "") not in allowed:
                        offenders.append(f"{relative}:{node.lineno} reads .bindings")
    assert not offenders, offenders


def _calls(tree: ast.AST):
    """``(called name, enclosing scopes)`` for every call in a module."""
    for node, scopes in _enclosing_scopes(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            yield name, scopes


#: Who writes each column of the execution ledger (``ExecutionStats``).
_LEDGER_WRITERS = {
    ("execution/fetch.py", ("UnitSource", "fetch")): {"calls", "cache_hits"},
    ("execution/stats.py", ("ExecutionStats", "charge")): {
        "fetches", "busy_time", "tuples_fetched", "remote_cache_hits", "clock",
    },
    ("execution/engine.py", ("ExecutionEngine", "execute")): {"rows_out"},
}


def test_every_service_page_goes_through_the_one_fetch_seam():
    """Storing a page in the logical cache, charging a fetch to the
    ledger and feeding the drift monitor each happen in exactly one
    function — ``UnitSource.fetch`` — and nothing else calls
    ``resilient_fetch``.  (``cache.py`` is exempt:
    ``ThreadSafeCache.store`` delegates to the cache it wraps.)  Each
    ledger column has one writer: the seam, the ledger's ``charge`` it
    calls, or (rows out) the walk; under ``execution/`` and
    ``serving/`` nothing else assigns those names but an object's own
    state."""
    seam = ("execution/fetch.py", ("UnitSource", "fetch"))
    sites: dict[str, set] = {}
    for path in SRC.rglob("*.py"):
        relative = path.relative_to(SRC).as_posix()
        in_execution = relative.startswith("execution/") and relative != "execution/cache.py"
        for name, scopes in _calls(ast.parse(path.read_text())):
            if name == "resilient_fetch" or (
                in_execution and name in ("store", "charge", "observe")
            ):
                sites.setdefault(name, set()).add((relative, scopes))
    assert sites == {
        name: {seam} for name in ("store", "charge", "observe", "resilient_fetch")
    }
    columns = set().union(*_LEDGER_WRITERS.values())
    writers: dict[tuple, set] = {}
    for package in ("execution", "serving"):
        for path in (SRC / package).glob("*.py"):
            relative = path.relative_to(SRC).as_posix()
            for node, scopes in _enclosing_scopes(ast.parse(path.read_text())):
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, ast.AugAssign):
                    targets = [node.target]
                else:
                    continue
                for target in targets:
                    while isinstance(target, ast.Subscript):
                        target = target.value
                    if not isinstance(target, ast.Attribute) or target.attr not in columns:
                        continue
                    own = getattr(target.value, "id", "") == "self"
                    if not own or relative == "execution/stats.py":
                        writers.setdefault((relative, scopes), set()).add(target.attr)
    assert writers == _LEDGER_WRITERS


def test_one_sibling_chooser():
    """A failed unit, a drifted service and a breaker-open service are
    rerouted by the same rule: outside the registry that defines it,
    ``.siblings(`` is called from ``UnitRouting.sibling`` alone."""
    callers = {
        (path.relative_to(SRC).as_posix(), scopes)
        for path in SRC.rglob("*.py")
        if path.relative_to(SRC).as_posix() != "services/registry.py"
        for name, scopes in _calls(ast.parse(path.read_text()))
        if name == "siblings"
    }
    assert callers == {("execution/fetch.py", ("UnitRouting", "sibling"))}


def test_one_plan_walk_and_one_restart_loop():
    """Under ``execution/`` only ``program.py`` dispatches on plan node
    types (compiling them into the steps the engine's one walk runs),
    failed units are rerouted-or-demoted from exactly two places — the
    engine's restart loop and the stream-resume handler — and the walk
    is ``execute`` itself: no private twin, no scheduler to hand it,
    and no thread pool anywhere under ``src/repro/``."""
    dispatchers = set()
    demoters = set()
    for path in (SRC / "execution").glob("*.py"):
        relative = path.relative_to(SRC).as_posix()
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", "") == "isinstance"
                and getattr(node.args[1], "id", "") == "JoinNode"
            ):
                dispatchers.add(relative)
        demoters.update(
            (relative, scopes)
            for name, scopes in _calls(tree)
            if name == "handle_unresponsive"
        )
    assert dispatchers == {"execution/program.py"}
    assert demoters == {
        ("execution/engine.py", ("ExecutionEngine", "execute")),
        ("execution/progressive.py", ("ProgressiveExecutor", "_resume_stream")),
    }
    engine = next(
        node
        for node in ast.walk(ast.parse((SRC / "execution" / "engine.py").read_text()))
        if isinstance(node, ast.ClassDef) and node.name == "ExecutionEngine"
    )
    methods = {
        node.name: node for node in engine.body if isinstance(node, ast.FunctionDef)
    }
    assert "_execute" not in methods
    assert [arg.arg for arg in methods["execute"].args.args] == [
        "self", "plan", "head", "k", "reset_remote_caches", "shared_cache",
        "fetches",
    ]
    pooled = [
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py")
        if "ThreadPoolExecutor" in path.read_text()
    ]
    assert not pooled, pooled


def test_a_plan_is_compiled_in_one_place_and_a_hit_builds_nothing():
    """Bindings, merge plans and predicates are compiled by
    ``ExecutionProgram.compile`` (through the constructors of
    ``slots.py``) alone — a join is built from the program's
    ``CompiledJoin`` only, never by the walk or from raw rows; the
    serving layer builds a plan only for a cache entry that has no
    program yet."""
    compilers = {
        "ServiceBinding": {"execution/program.py"},
        "SlotJoinPlan": {"execution/slots.py"},
        "compile_predicates": {"execution/slots.py", "execution/program.py"},
        "compile_join": {"execution/program.py"},
    }
    sites: dict[str, set] = {name: set() for name in compilers}
    builds = []
    for package in ("execution", "serving"):
        for path in (SRC / package).glob("*.py"):
            relative = path.relative_to(SRC).as_posix()
            tree = ast.parse(path.read_text())
            for name, scopes in _calls(tree):
                if name in compilers:
                    sites[name].add(relative)
                if name in ("build", "PlanBuilder") and package == "serving":
                    builds.append((relative, scopes))
    assert sites == compilers
    assert builds == [("serving/service.py", ("QueryService", "_resolve_plan"))]
    service = ast.parse((SRC / "serving" / "service.py").read_text())
    guarded = [
        node
        for node in ast.walk(service)
        if isinstance(node, ast.If)
        and ast.unparse(node.test) == "program is None"
        and "build(" in ast.unparse(node)
    ]
    assert len(guarded) == 1
    walk = next(
        node
        for node in ast.walk(ast.parse((SRC / "execution" / "engine.py").read_text()))
        if isinstance(node, ast.FunctionDef) and node.name == "execute"
    )
    assert "isinstance" not in {name for name, _ in _calls(walk)}


def test_the_search_folds_its_plans_and_builds_only_the_one_that_leaves():
    """A search state is an open plan extended from another state's:
    ``optimizer/`` makes no sub-query to build a state's plan from
    scratch, calls ``PlanBuilder.build`` only where the chosen plan
    leaves ``optimize()``, compiles an annotation program from a whole
    plan only for the empty state every other one is extended from
    (the from-scratch bound lives in ``repro.testing``, which production
    code never imports)."""
    sites: dict[str, set] = {}
    for path in (SRC / "optimizer").glob("*.py"):
        relative = path.relative_to(SRC).as_posix()
        for name, scopes in _calls(ast.parse(path.read_text())):
            if name in ("ConjunctiveQuery", "build", "AnnotationProgram"):
                sites.setdefault(name, set()).add((relative, scopes))
    assert sites == {
        "build": {("optimizer/optimizer.py", ("Optimizer", "optimize"))},
        "AnnotationProgram": {
            ("optimizer/optimizer.py", ("Optimizer", "_begin")),
            # A context handed no program (hand-built plans, baselines).
            ("optimizer/fetches.py", ("FetchContext", "__init__")),
        },
    }


def test_retired_seam_plumbing_stays_retired():
    retired = (
        "swap_stats", "rebind_stats", "adopt_adaptive_state",
        "RetryingPageSource", "lazy_streaming",
        "AdaptiveExecutor", "execution.adaptive",
        "NodeFetch", "service_bindings",
        "_JsonDiskTier", "backend_name", "migrate_json", "plan_cache_backend",
        "execute_join_streamed", "LayoutMemo", "_shares_layout",
        "thread_overhead", "shuffle_seed", "tenant_id", "busy_timeout_ms",
        "_hedge_pool", "_key_locks", "streamed_fallback",
        "HedgePolicy", "_maybe_hedge", "hedged_pulls", "hedged_wins",
        "explore_fetches", "max_topologies_per_sequence", "_fresh_id",
        "ParallelExecutor", "execution.parallel", "key_lock",
        "parallel_workers", "wall_time", "Scheduler", "_merge_counters",
        "DriftPolicy", "BreakerPolicy", "AdaptivePolicy", "RetryPolicy",
        "sibling_fallback", "substitute_siblings", "_half_open", "SEQUENTIAL",
        "prefetch", "execute_join_hashed", "_require_layout", "_laid_out",
        "record_fetch", "busiest_service_time", "output_size_of",
    )
    offenders = [
        f"{path.relative_to(REPO)}: {name}"
        for path in SRC.rglob("*.py")
        for name in retired
        if name in path.read_text()
    ]
    assert not offenders, offenders


def test_growth_re_executes_only_where_it_cannot_continue():
    """After ``_grow_fetches`` the session executor runs the plan again
    only behind the program's compiled ``grows_in_place`` condition (a
    continued walk that died is the one other way there), the condition
    is a field ``ExecutionProgram.compile`` sets and nothing else
    writes, and neither the cursors nor the streams over them ever
    invoke a service: a page still has one way in."""
    progressive = ast.parse((SRC / "execution" / "progressive.py").read_text())
    rounds = next(
        node
        for node in ast.walk(progressive)
        if isinstance(node, ast.FunctionDef) and node.name == "_run_rounds"
    )
    loop = next(
        node
        for node in ast.walk(rounds)
        if isinstance(node, ast.While) and "_grow_fetches" in ast.unparse(node)
    )
    body = ast.unparse(loop)
    assert body.count("_execute_round(") == 1
    assert body.index("_grow_fetches(") < body.index(
        "if self._program.grows_in_place"
    ) < body.index("_execute_round(")
    guarded = next(
        node
        for node in ast.walk(loop)
        if isinstance(node, ast.If) and "_execute_round(" in ast.unparse(node)
    )
    # ``if grown is not None: ... else: re-execute`` where ``grown`` is
    # the in-place continuation: None unless the condition held.
    assert ast.unparse(guarded.test) == "grown is not None"
    assert "_execute_round(" in ast.unparse(guarded.orelse)
    assert "_execute_round(" not in ast.unparse(guarded.body)
    writers = [
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py")
        if "grows_in_place=" in path.read_text()
    ]
    assert writers == ["execution/program.py"]
    streams = [
        (SRC / "execution" / "lazy.py").read_text(),
        *(
            ast.unparse(node)
            for name in ("engine.py", "joins.py")
            for node in ast.walk(ast.parse((SRC / "execution" / name).read_text()))
            if isinstance(node, ast.ClassDef) and node.name.endswith("Stream")
        ),
    ]
    assert len(streams) == 4  # lazy.py, TopKStream, JoinStream, ChainStream
    assert not [text[:40] for text in streams if ".invoke(" in text]


def test_one_join_one_plan_cache_tier_one_sqlite_pool():
    """The reference join, the oracles, the workload generator and the
    suites' fixtures are defined under ``testing/`` only; the
    streamed walk's cell loop iterates the *matching* cells of a stage,
    compares no layouts and looks nothing up — a key is read and
    looked up once per indexed row, in the one class that builds key
    buckets, which the materializing join and the stream share; the
    plan cache has no file format of its own; and only the pool in
    ``services/sqlite.py`` opens plan-cache or service connections."""
    references = {
        "execute_join", "merged_with", "exhaustive_optimize", "wsms_optimize",
        "generate_workload", "is_order_rank_consistent", "ListPageSource",
    }
    definers = {
        (node.name, path.relative_to(SRC).parts[0])
        for path in SRC.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name in references
    }
    assert definers == {(name, "testing") for name in references}
    joins = ast.parse((SRC / "execution" / "joins.py").read_text())
    advance = next(
        node
        for node, scopes in _enclosing_scopes(joins)
        if isinstance(node, ast.FunctionDef)
        and node.name == "_advance_stage"
        and scopes == ("JoinStream",)
    )
    loops = [node for node in ast.walk(advance) if isinstance(node, ast.For)]
    assert len(loops) == 1
    assert ast.unparse(loops[0].iter) == "cells"
    assert "cells = self._matching_cells(" in ast.unparse(advance)
    for node in ast.walk(loops[0]):
        assert not (isinstance(node, ast.Attribute) and node.attr == "layout")
        assert not (
            isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
        ), "dict lookup in the cell loop"
        assert not (
            isinstance(node, ast.Call) and getattr(node.func, "attr", "") == "get"
        ), "dict lookup in the cell loop"
    # Who reads a join's key (the readers ``SlotJoinPlan`` compiles, or
    # its shared slot pairs) builds key buckets: one class, used by both.
    key_readers = {
        (path.name, scopes)
        for path in (SRC / "execution").glob("*.py")
        for node, scopes in _enclosing_scopes(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
        and node.attr in ("left_key", "right_key", "shared")
        and scopes[:1] != ("SlotJoinPlan",)
    }
    assert key_readers == {("joins.py", ("KeyIndex", "__init__"))}
    users = {scopes for name, scopes in _calls(joins) if name == "KeyIndex"}
    assert users == {("join_rows",), ("JoinStream", "__init__")}
    plan_cache = ast.parse((SRC / "serving" / "plan_cache.py").read_text())
    imported = {
        name.split(".")[0]
        for node in ast.walk(plan_cache)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in (
            [node.module or ""]
            if isinstance(node, ast.ImportFrom)
            else [alias.name for alias in node.names]
        )
    }
    assert not imported & {"json", "tempfile", "os"}
    for path in (SRC / "serving").glob("*.py"):
        assert "sqlite3.connect(" not in path.read_text(), path.name


def test_the_paper_is_reproduced_in_one_place():
    """The five figure modules under ``benchmarks/`` call
    ``repro.experiments`` and build, profile and enumerate nothing
    themselves; the paper's published values have one home outside the
    tests; and every ``BENCH_*.json`` is written through
    ``append_history``."""
    from benchmarks.code_lines import FIGURE_MODULES

    benchmarks = REPO / "benchmarks"
    for name in FIGURE_MODULES:
        tree = ast.parse((benchmarks / name).read_text())
        imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
        assert "repro.experiments" in {node.module for node in imports}, name
        imported = {alias.name for node in imports for alias in node.names}
        assert not imported & {
            "PlanBuilder", "FetchContext", "ServiceProfiler", "TopologyEnumerator",
        }, name
    holders = [
        path.relative_to(REPO).as_posix()
        for top in ("src", "benchmarks", "examples")
        for path in (REPO / top).rglob("*.py")
        if "(71, 16, 284)" in path.read_text()
    ]
    assert holders == ["src/repro/experiments/figure11.py"]
    for path in benchmarks.glob("*.py"):
        text = path.read_text()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", "") == "write_text":
                assert "BENCH_" not in ast.unparse(node), path.name
        if 'bench_out_name("BENCH_' in text:
            assert "append_history(" in text, path.name


def test_parameter_budget(capsys):
    """Every settable value of the execution and serving entry points,
    as a literal: adding a knob is an edit someone makes on purpose."""
    from repro.__main__ import main
    from repro.execution.engine import ExecutionEngine
    from repro.execution.progressive import ProgressiveExecutor
    from repro.execution.resilience import ResilienceConfig
    from repro.optimizer.optimizer import OptimizerConfig
    from repro.serving import (
        CircuitBreaker,
        PlanCache,
        QueryService,
        SessionManager,
        SQLiteDiskTier,
    )

    budget = {
        ExecutionEngine: (
            "registry", "cache_setting", "mode", "resilience",
            "row_provenance", "drift_monitor",
        ),
        ProgressiveExecutor: (
            "registry", "plan", "head", "mode", "cache_setting",
            "shared_cache", "reset_remote", "resilience", "row_provenance",
            "replan",
        ),
        PlanCache: ("path", "capacity", "tenant_quota"),
        SQLiteDiskTier: ("path",),
        QueryService: (
            "registry", "metric", "k_default", "plan_cache",
            "share_service_cache", "service_cache_capacity", "resilience",
            "row_provenance", "breaker",
        ),
        SessionManager: ("capacity", "ttl", "clock"),
        OptimizerConfig: (
            "k", "cache_setting", "fetch_heuristic", "most_cogent_only",
            "prune", "memoize",
        ),
        ResilienceConfig: ("attempts", "partial_results"),
        CircuitBreaker: ("clock",),
    }
    for cls, parameters in budget.items():
        assert tuple(inspect.signature(cls).parameters) == parameters, cls.__name__
    # The serving contract is two calls, answer and continue (paper
    # §2.2), plus closing a session and reading the counters.
    public = {
        name for name, _ in inspect.getmembers(QueryService, inspect.isfunction)
        if not name.startswith("_")
    }
    assert public == {"submit", "ask_for_more", "release", "snapshot"}
    serving_flags = {
        "-h", "--help", "--domain", "--metric", "-k", "--plan-cache", "--retries",
        "--partial-results", "--provenance", "--adaptive",
    }
    for command, own in (("query", {"--repeat"}), ("serve", set())):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        flags = set(re.findall(r"(?<![\w-])--?[a-z][a-z-]*", capsys.readouterr().out))
        assert flags == serving_flags | own, command


def test_code_line_ratchet():
    """Code-only lines (``python benchmarks/code_lines.py``) of the
    three groups a simplification is judged on, as literals.  A
    deletion must lower its literal (the slack is 25 lines); growth is
    an edit someone makes on purpose — per ROADMAP, only in a PR that
    claims a frozen-bench gain."""
    from benchmarks.code_lines import count, ratchet_groups

    ceilings = {
        "src/repro/execution + serving": 3373,
        "src/repro/optimizer + plans + costs": 2183,
        "src/repro outside testing": 9174,
    }
    actual = {
        name: sum(count(path)[1] for path in files)
        for name, files in ratchet_groups().items()
    }
    assert actual.keys() == ceilings.keys()
    for name, ceiling in ceilings.items():
        assert actual[name] <= ceiling <= actual[name] + 25, (name, actual[name])
