"""What one partitioner search builds, counted.

A search scores every candidate layout from its propagated state and
prefix sums (DESIGN §15); the plan objects a caller reads are built only
for what it returns.  The budget is a count, which does not depend on the
machine: ``PartitionPlan`` and ``ShardingSpec`` constructions and spec
validations of one search are at most its ``top_k`` plans plus the
replicated baseline, however many candidates it expands.
"""

from __future__ import annotations

import collections

import pytest

from repro.spmd import SearchConfig, make_partitioner, search_partitioning
from repro.spmd.modelgraphs import transformer_block_graph
from repro.spmd.plan import PartitionPlan, ShardingSpec

#: Candidates the search below expands (pinned: the budget holds while the
#: search does the same work).
EXPANDED = 313


def _count_calls(monkeypatch, counts, cls, method):
    original = getattr(cls, method)

    def counted(self, *args, **kwargs):
        counts[f"{cls.__name__}.{method}"] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, method, counted)


@pytest.mark.parametrize("validate", [False, True])
def test_objects_only_for_returned_plans(monkeypatch, validate):
    graph = transformer_block_graph(seq=27)
    partitioner = make_partitioner("v07")
    config = SearchConfig(
        num_shards=4, seed=0, seed_nodes="all", beam_width=32, validate=validate
    )
    counts: collections.Counter = collections.Counter()
    _count_calls(monkeypatch, counts, PartitionPlan, "__init__")
    _count_calls(monkeypatch, counts, ShardingSpec, "__init__")
    _count_calls(monkeypatch, counts, ShardingSpec, "__post_init__")
    result = search_partitioning(graph, config, partitioner)
    assert result.stats.candidates_expanded == EXPANDED
    budget = config.top_k + 1  # the ranked plans and the baseline
    assert 0 < counts["PartitionPlan.__init__"] <= budget
    assert 0 < counts["ShardingSpec.__init__"] <= budget
    assert counts["ShardingSpec.__post_init__"] == counts["ShardingSpec.__init__"]
