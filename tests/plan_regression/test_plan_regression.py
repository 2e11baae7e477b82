"""Golden plan-regression suite (ISSUE 9 tentpole).

Every workload in the corpus re-runs the optimizer's arbitration and
compares its plan record — chosen operator, deciding rule, estimator tier,
costs, actual blocks — against the pinned JSON under ``golden/``.  A
failure here means an optimizer change flipped a plan (or moved a
cost); approve it with::

    PYTHONPATH=src python -m repro.optimizer.regression --update

and commit the golden diff so review sees exactly what changed.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.optimizer import regression

GOLDEN_DIR = Path(__file__).parent / "golden"

WORKLOADS = tuple(regression.workloads())


@pytest.fixture(scope="module", autouse=True)
def _drop_corpus_cache():
    """Free the memoized datasets/indexes once the module finishes."""
    yield
    regression.clear_cache()


def _golden(name: str) -> dict:
    path = GOLDEN_DIR / f"{name}.json"
    if not path.exists():
        pytest.fail(
            f"no golden record for workload {name!r}; generate it with "
            "python -m repro.optimizer.regression --update"
        )
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def test_corpus_is_at_least_thirty_workloads():
    assert len(WORKLOADS) >= 30


def test_golden_dir_matches_corpus_exactly():
    """No orphaned golden files, no workload without a golden record."""
    on_disk = {path.stem for path in GOLDEN_DIR.glob("*.json")}
    assert on_disk == set(WORKLOADS)


def test_corpus_covers_the_full_matrix():
    """Every dataset × substrate × op cell is present, plus specials."""
    for dataset in regression.DATASETS:
        for substrate in regression.SUBSTRATES:
            for op in ("select", "batch", "join"):
                assert f"{dataset}-{substrate}-{op}" in WORKLOADS
    assert "engine-cost-tie" in WORKLOADS
    assert "engine-pinned-override" in WORKLOADS
    assert "engine-stale-raise-demotion" in WORKLOADS


def test_corpus_exercises_both_sides_of_each_arbitration():
    """The pinned corpus is not degenerate: both batch strategies and
    both join strategies win somewhere, and every decision records a
    deciding link."""
    records = [_golden(name) for name in WORKLOADS]
    batch_winners = {r["chosen"] for r in records if r["op"] == "batch"}
    join_winners = {r["chosen"] for r in records if r["op"] == "join"}
    assert batch_winners == {"per-query-selects", "shared-knn-join"}
    assert join_winners == {"locality-join", "per-point-selects"}
    assert all(r["decided_by"] for r in records)


@pytest.mark.parametrize("name", WORKLOADS)
def test_plan_matches_golden(name):
    current = regression.run_workload(name)
    golden = _golden(name)
    diffs = regression.diff_records(golden, current)
    assert not diffs, (
        f"plan regression in {name}:\n" + "\n".join(diffs) + "\n\n"
        "If this change is intended, approve it with "
        "python -m repro.optimizer.regression --update and commit the diff."
    )


def test_cost_tie_is_pinned_as_a_true_tie():
    """The tie workload must stay an exact tie (and go to the scan)."""
    record = _golden("engine-cost-tie")
    assert record["tie"] is True
    assert record["chosen"] == "filter-then-knn"
    assert record["decided_by"] == "cost-based"


def test_stale_raise_workload_is_pinned_as_demoted():
    """Stale catalogs under ``raise`` demote the estimate to the
    catalog-free density tier; cost still decides."""
    record = _golden("engine-stale-raise-demotion")
    assert record["degraded"] is True
    assert record["estimator_tier"] == "density"
    assert record["trail_actions"] == {"cost-based": "chose"}
