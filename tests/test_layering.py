"""Layering guard: the lower layers never import the serving tier.

The cross-shard merge lives in :mod:`repro.knn` so that the engine and
the serving coordinator run the *same* browser; that only holds while
the dependency points one way.  This walks the static import graph
(every ``import`` statement, function-level ones included, followed
transitively through ``src/repro``) from each lower layer and fails if
it can reach ``repro.serving``.

A second walk keeps retired names retired: second implementations that
were folded into the one substrate (the ``CountIndex`` wrapper, the
array metrics of ``geometry/metrics.py``, the reference-build knobs) or
into the one planner (the standalone choosers and plan objects, the
scalar planning twin, the coordinator's own arbitration) must not come
back under their old names.

It also keeps the retired benchmark system retired: ``benchmarks/`` holds
the one harness (``e2e/``) and the committed tables (``results/``), and
nothing tracked mentions pytest-benchmark; and the retired kernel
backend switch: nothing in ``src/`` or ``tests/`` mentions numba or
``REPRO_KERNEL_BACKEND``.

A third keeps plan decisions in one place: ``arbitrate`` /
``arbitrate_batch`` are called only by the engine planner (and the
golden corpus, which hands ``arbitrate`` candidates costed on substrates
the engine does not plan over), and ``repro.optimizer`` stays pure
arbitration — no executor, no engine.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent
REPO = SRC.parent


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


MODULES = {_module_name(path): path for path in SRC.rglob("*.py")}


def _imports(name: str) -> set[str]:
    """The ``repro`` modules that importing ``name`` names directly."""
    path = MODULES[name]
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    named: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            named.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # relative import
                anchor = package.split(".")
                anchor = anchor[: len(anchor) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            named.add(base)
            named.update(f"{base}.{alias.name}" for alias in node.names)
    found: set[str] = set()
    for target in named:
        while target and target not in MODULES:  # strip attribute names
            target = target.rpartition(".")[0]
        parts = target.split(".") if target else []
        # Importing a.b.c also imports the packages a and a.b.
        found.update(".".join(parts[: i + 1]) for i in range(len(parts)))
    found.discard(name)
    return found


def _path_to_serving(layer: str) -> list[str] | None:
    """An import chain from ``repro.<layer>`` into ``repro.serving``."""
    root = f"repro.{layer}"
    parents: dict[str, str | None] = {}
    stack: list[tuple[str, str | None]] = [
        (name, None) for name in MODULES if name == root or name.startswith(root + ".")
    ]
    while stack:
        name, parent = stack.pop()
        if name in parents:
            continue
        parents[name] = parent
        if name == "repro.serving" or name.startswith("repro.serving."):
            chain = [name]
            while parents[chain[-1]] is not None:
                chain.append(parents[chain[-1]])
            return chain[::-1]
        stack.extend((dep, name) for dep in _imports(name))
    return None


@pytest.mark.parametrize("layer", ["geometry", "index", "knn", "engine"])
def test_lower_layers_do_not_import_serving(layer):
    chain = _path_to_serving(layer)
    assert chain is None, f"repro.{layer} reaches the serving tier: " + " -> ".join(chain)


def test_the_walk_sees_function_level_imports():
    # The guard is only as good as the walker: the workload replay's
    # lazy ``from repro.serving import serve_sharded`` must be visible.
    assert "repro.serving" in _imports("repro.workloads.serving")


#: Names of second implementations that left ``src/``: the block-summary
#: wrapper (the snapshot is the Count-Index), the array MINDIST/MAXDIST
#: copies (the kernels are the only array definition) and the switches
#: that selected an in-tree reference build (now ``tests/reference_builds.py``);
#: the standalone chooser / plan stack, the scalar planning twin's cache
#: entry point and the two re-spellings of the planner's arbitration; the
#: statistics manager's snapshot re-layout options, the second names of
#: the one catalog merge, and the pytest-benchmark suite's profile fixture
#: and environment variable (``python -m repro.experiments --profile``),
#: and the all-rects containment pass (``index.locator.BlockLocator``
#: finds home blocks; the pass is the ``tests/reference_builds.py`` oracle);
#: the four-link operator-selection chain, its presets and the planner /
#: manager / engine / coordinator plumbing that fed it (one ``arbitrate``
#: call decides every plan, pins are ``StatisticsManager(pinned_operators=)``);
#: the per-anchor profile loop of the Staircase build, its catalog
#: shortcut and its one-anchor gather (one ``perf.profile_staircases``
#: batch pass profiles every anchor); the per-query select assembly, its
#: clock-stamping decider, the per-query outcome list, the trivial-select
#: and operator helpers and the operator-building plan functions (a
#: select group is one array pass and one ``arbitrate_batch``;
#: ``planner.physical_operator`` alone builds operators, and only to
#: execute); the shard workers' statistics, the coordinator's merge of
#: their estimates, its arbitration-only manager and its uniform-model
#: degraded answers (the coordinator plans every sharded query through
#: ``explain_select_batch``, which spells the select assembly itself, and
#: an estimate-only answer keeps that plan); the mutable quadtree's
#: dead-region log and its tests-only dirty-region view, and the Staircase
#: build over whole leaves (a refresh splices the maximal dirty regions,
#: read off the dirty log alone, and profiles per anchor); the executor's
#: per-pull row masks of ``gather_blocks``, the block stream's batched
#: window ordering and the private range helper the array browse made
#: public (``repro.knn.browse`` runs every select, and
#: ``SnapshotBlockStream`` orders one row's window, with no shared-pass
#: ``batch``); the kernel backend registry, its numba backend, its
#: import-time selection and the plumbing that carried the active
#: backend's name to workers, plans and the CLI (``geometry/kernels.py``
#: runs one numpy ufunc chain per kernel); the data tier's open / resume
#: protocol — the shard's local browse and its columns, the array merge,
#: the resume gather and loop, and the coordinator's replay bounds (the
#: coordinator browses the global snapshot, and a round's gather goes to
#: the shards that own its blocks); the heap distance browser, the scalar
#: per-anchor Procedure 1 scan and its one-profile catalog shortcut (exact
#: costs and ``knn_select`` run on ``repro.knn.browse``, profiles and
#: catalogs on ``perf.profile_staircases``; the two old paths are the
#: ``tests/heap_oracle.py`` and ``tests/reference_builds.py`` oracles).
RETIRED_NAMES = {
    "CountIndex",
    "count_index",
    "_count_index",
    "build_count_index",
    "mindist_point_rects",
    "mindist_points_rects",
    "maxdist_point_rects",
    "mindist_rect_rects",
    "maxdist_rect_rects",
    "dedup",
    "_dedup",
    "no_dedup",
    "_build_reference",
    "choose_select_plan",
    "choose_batch_plan",
    "PlanChoice",
    "BatchPlanChoice",
    "FilterThenKnnPlan",
    "IncrementalKnnPlan",
    "PlanResult",
    "estimate_select_cost",
    "_arbitrate",
    "_JOIN_SAMPLE",
    "snapshot_layout",
    "layout_orders",
    "merge_max_fast",
    "merge_sum_fast",
    "bench_config",
    "REPRO_BENCH_PROFILE",
    "leaf_id_for_point",
    "_LEAF_BIN_CHUNK",
    "PhysicalOperatorSelection",
    "PlanAssignment",
    "PlanningContext",
    "CostBasedSelection",
    "FreshnessGuardSelection",
    "ConfidenceSelection",
    "PinnedOverrideSelection",
    "CATALOG_BACKED_TIERS",
    "CHAIN_PRESETS",
    "default_selection_chain",
    "build_selection_chain",
    "chain_with",
    "select_physical_operators",
    "_run_chain",
    "selection_chain",
    "configure_selection",
    "degraded_penalty",
    "catalog_freshness",
    "cache_stats",
    "tier_vocabulary",
    "estimator_tiers",
    "_arbiter_tiers",
    "estimator_ranking",
    "_profiles_batched",
    "_catalog_from_profile_fast",
    "_MINDIST_BATCH",
    "gathered_distances",
    "assemble_select_explanation",
    "_decide",
    "_batch_outcomes",
    "_plan_trivial_select",
    "_select_operator_for",
    "_plan_batch",
    "plan_join",
    "plan_range",
    "plan_select",
    "plan_select_batch",
    "EstimateCache",
    "estimate_cache",
    "estimate_cache_size",
    "estimate_cache_cells",
    "DEFAULT_CACHE_CELLS",
    "cache_hit",
    "cache_hits",
    "cache_misses",
    "cache_hit_rate",
    "_sync_cache_generation",
    "cache_entries_carried",
    "cache_entries_dropped",
    "estimate-cache",
    "--cache-size",
    "_init_shard_worker",
    "_serve_shard_chunk",
    "_serve_stream",
    "knn_join",
    "JoinStats",
    "_batch_knn",
    "SHARD_TABLE",
    "estimate_select_provenance",
    "merge_select_estimates",
    "worst_tier",
    "_TIER_RANK",
    "assemble_select_explanations",
    "_arbiter",
    "DEGRADED_PLAN",
    "_fallback_model",
    "_fill_degraded",
    "_dead_log",
    "_record_death",
    "dead_region_items_since",
    "dirty_regions",
    "_build_shared",
    "keeps",
    "_concat_ranges",
    "_ordered_windows",
    "_RowTaggedQuadtree",
    "_attach_row_ids",
    "set_backend",
    "active_backend",
    "get_backend",
    "available_backends",
    "kernel_backend",
    "numba_backend",
    "numpy_backend",
    "_select_at_import",
    "merge_open",
    "OpenReply",
    "_browse_to_local_stop",
    "_resume_streams",
    "gather_blocks",
    "run_merges",
    "_dead_bound",
    "_hull_bounds",
    "DistanceBrowser",
    "select_cost_profile_covered",
    "_catalog_from_profile",
    "estimate_time_budget",
    "time_budget_seconds",
    "last_outcome",
    "last_batch_outcome",
    "reset_health",
    "DEFAULT_BREAKER_THRESHOLD",
    "DEFAULT_BREAKER_COOLDOWN",
    "_expand_search",
}


def _identifiers(tree: ast.AST):
    """Every identifier a module binds, reads, passes by keyword or imports,
    and every string it spells out whole (environment variables, pins)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.arg):
            yield node.arg, node.lineno
        elif isinstance(node, ast.keyword) and node.arg is not None:
            yield node.arg, node.value.lineno
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                for part in (*alias.name.split("."), alias.asname):
                    if part:
                        yield part, node.lineno
            if isinstance(node, ast.ImportFrom) and node.module:
                for part in node.module.split("."):
                    yield part, node.lineno


def test_retired_names_stay_retired():
    hits = [
        f"{path.relative_to(SRC)}:{lineno}: {name}"
        for path in sorted(MODULES.values())
        for name, lineno in _identifiers(ast.parse(path.read_text()))
        if name in RETIRED_NAMES
    ]
    assert not hits, "retired names are back in src/:\n" + "\n".join(hits)
    assert not (SRC / "repro" / "index" / "count_index.py").exists()
    assert not (SRC / "repro" / "engine" / "cache.py").exists()
    assert not list((SRC / "repro" / "geometry" / "backends").glob("*.py"))
    for module in ("chooser", "plans"):
        assert f"repro.optimizer.{module}" not in MODULES


def test_leaf_ids_for_points_is_only_the_snapshot_method():
    # The frozen benchmark calls ``snapshot.leaf_ids_for_points``, so the
    # name cannot retire; the module-level all-rects function can.
    uses = []
    for path in sorted(MODULES.values()):
        tree = ast.parse(path.read_text())
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "leaf_ids_for_points":
                owner = parents[node]
                uses.append((path.name, getattr(owner, "name", "<module>")))
            elif isinstance(node, (ast.Name, ast.alias)) and "leaf_ids_for_points" in (
                getattr(node, "id", None),
                getattr(node, "name", None),
            ):
                uses.append((path.name, "<reference>"))
    assert uses == [("snapshot.py", "IndexSnapshot")]


def test_the_retired_name_walk_sees_every_identifier_kind():
    source = (
        "from a.count_index import CountIndex as C\n"
        "def f(dedup=True):\n"
        "    return g(no_dedup=x._dedup, profile=os.environ['REPRO_BENCH_PROFILE'])\n"
    )
    seen = {name for name, __ in _identifiers(ast.parse(source))}
    assert {
        "count_index", "CountIndex", "dedup", "no_dedup", "_dedup", "REPRO_BENCH_PROFILE"
    } <= seen


def test_benchmarks_holds_one_harness_and_the_tables():
    kept = {path.name for path in (REPO / "benchmarks").iterdir()} - {"__pycache__"}
    assert kept == {"e2e", "results"}
    retired = ("pytest_benchmark", "--benchmark-")
    sources = [
        path
        for pattern in ("*.py", "*.yml")
        for path in REPO.rglob(pattern)
        if path != Path(__file__).resolve()
    ]
    assert sources
    hits = [
        str(path.relative_to(REPO))
        for path in sources
        if any(word in path.read_text() for word in retired)
    ]
    assert not hits, "the pytest-benchmark suite is back: " + ", ".join(hits)


def test_one_kernel_path_no_backend_switch():
    # The kernels are one numpy path: no module under src/ or tests/
    # reads the retired backend variable or mentions the compiled backend.
    retired = ("REPRO_KERNEL_BACKEND", "numba")
    sources = [
        path
        for root in (SRC, REPO / "tests")
        for path in root.rglob("*.py")
        if path != Path(__file__).resolve()
    ]
    assert sources
    hits = [
        str(path.relative_to(REPO))
        for path in sources
        if any(word in path.read_text() for word in retired)
    ]
    assert not hits, "the kernel backend switch is back: " + ", ".join(hits)


def test_arbitrate_is_called_by_the_planner_and_the_corpus_only():
    callers: dict[str, set[str]] = {"arbitrate": set(), "arbitrate_batch": set()}
    for name, path in MODULES.items():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                called = getattr(node.func, "id", getattr(node.func, "attr", None))
                callers.get(called, set()).add(name)
    assert callers["arbitrate"] == {"repro.engine.planner", "repro.optimizer.regression"}
    # The scalar call is the batch of one.
    assert callers["arbitrate_batch"] == {"repro.engine.planner", "repro.optimizer.selection"}


def test_the_optimizer_is_arbitration_only():
    # The golden corpus is the one module that drives the engine.
    for name in MODULES:
        if name.startswith("repro.optimizer") and name != "repro.optimizer.regression":
            reached = {
                dep
                for dep in _imports(name)
                if dep.startswith(("repro.knn", "repro.engine"))
            }
            assert not reached, f"{name} imports {sorted(reached)}"
