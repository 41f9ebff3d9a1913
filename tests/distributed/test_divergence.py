"""The acceptance criteria: divergence wins, answers stay byte-identical.

* d=5, 4 divergent replicas: predicted-cost ratio strictly below 1.0
  against N identical copies of the workload-weighted single advise.
* Every divergent path (``repro partition``, ``repro replay --divergent``,
  the smoke) prices the same identical copies.
* Routed fleet answers are byte-identical to a golden serial server.
* Killing any one replica mid-run re-routes with zero wrong answers.
* The ``repro.distributed.smoke`` module passes end to end.
"""

import pytest

from repro.algorithms import serving_advise
from repro.distributed import divergence_report, plan_divergent
from repro.io import save_query_log
from repro.serve import QueryServer, ReplicaFleet, validate_telemetry


def plan(model, counts, n_replicas):
    return plan_divergent(model, counts, "1greedy", n_replicas)


def identical_selection(model, counts):
    """The identical copies' selection: the workload-weighted advise."""
    return serving_advise(model, "1greedy", counts=counts).selected


@pytest.fixture(scope="module")
def planned5(dist_model5, dist_counts5):
    return plan(dist_model5, dist_counts5, 4)


class TestDivergenceWins:
    def test_d5_four_replicas_beat_identical_copies(
        self, dist_model5, dist_counts5, planned5
    ):
        """The headline number: 4 divergent replicas price the d=5
        workload strictly below 4 identical copies."""
        partitioned, advice, router, report = planned5
        assert report == divergence_report(
            dist_model5,
            dist_counts5,
            advice,
            identical_selection(dist_model5, dist_counts5),
            partitioned=partitioned,
            router=router,
        )
        assert report["replicas"] == 4
        assert report["predicted_cost_ratio"] < 1.0
        assert report["divergent_predicted_cost"] < report[
            "identical_predicted_cost"
        ]

    def test_report_routed_load_accounts_every_pattern(
        self, dist_model5, dist_counts5, planned5
    ):
        report = planned5[3]
        load = report["routed_load"]
        assert sum(entry["patterns"] for entry in load.values()) == len(
            dist_counts5
        )
        assert sum(entry["weight"] for entry in load.values()) == (
            pytest.approx(sum(dist_counts5.values()))
        )


class TestRoutedServing:
    def test_answers_byte_identical_to_serial_golden(
        self, dist_fact4, dist_model4, dist_counts4, dist_log4
    ):
        __, advice, router, __ = plan(dist_model4, dist_counts4, 3)
        identical = identical_selection(dist_model4, dist_counts4)
        with QueryServer(
            dist_fact4, identical, cost_model=dist_model4
        ) as golden_server:
            golden = [golden_server.serve(e).groups for e in dist_log4]
        fleet = ReplicaFleet(
            dist_fact4,
            advice.selections,
            cost_model=dist_model4,
            router=router,
        )
        try:
            outcomes = [fleet.serve(entry) for entry in dist_log4]
        finally:
            fleet.close()
        assert [o.groups for o in outcomes] == golden
        snapshot = validate_telemetry(fleet.merged_telemetry().snapshot())
        hits = sum(snapshot["fleet"]["routed_hits"].values())
        misroutes = sum(snapshot["fleet"]["misroutes"].values())
        assert hits + misroutes == len(dist_log4)
        assert misroutes == 0  # nothing failed, nothing re-routed

    @pytest.mark.parametrize("victim", [0, 1, 2])
    def test_killing_any_replica_reroutes_without_wrong_answers(
        self, dist_fact4, dist_model4, dist_counts4, dist_log4, victim
    ):
        __, advice, router, __ = plan(dist_model4, dist_counts4, 3)
        identical = identical_selection(dist_model4, dist_counts4)
        with QueryServer(
            dist_fact4, identical, cost_model=dist_model4
        ) as golden_server:
            golden = [golden_server.serve(e).groups for e in dist_log4]
        fleet = ReplicaFleet(
            dist_fact4,
            advice.selections,
            cost_model=dist_model4,
            router=router,
        )
        half = len(dist_log4) // 2
        try:
            answers = [fleet.serve(e).groups for e in dist_log4[:half]]
            fleet.replicas[victim].kill()
            answers += [fleet.serve(e).groups for e in dist_log4[half:]]
        finally:
            fleet.close()
        assert answers == golden
        snapshot = validate_telemetry(fleet.merged_telemetry().snapshot())
        counters = snapshot["fleet"]
        assert sum(counters["routed_hits"].values()) + sum(
            counters["misroutes"].values()
        ) == len(dist_log4)
        # misroutes credit the replica that served; the dead one never does
        assert not counters["misroutes"].get(str(victim))

    def test_failover_prefers_next_cheapest(
        self, dist_fact4, dist_model4, dist_counts4, dist_log4
    ):
        """With the cheapest replica dead, queries land on the runner-up
        from the routing table, not an arbitrary rotation slot."""
        __, advice, router, __ = plan(dist_model4, dist_counts4, 3)
        fleet = ReplicaFleet(
            dist_fact4,
            advice.selections,
            cost_model=dist_model4,
            router=router,
        )
        try:
            entry = dist_log4[0]
            ranking = router.ranking(entry.query)
            fleet.replicas[ranking[0].replica_id].kill()
            fleet.serve(entry)
            misroutes = fleet.telemetry.fleet_stats()["misroutes"]
            assert misroutes.get(str(ranking[1].replica_id)) == 1
        finally:
            fleet.close()

    def test_router_replica_count_must_match_fleet(
        self, dist_fact4, dist_model4, dist_counts4
    ):
        __, advice, router, __ = plan(dist_model4, dist_counts4, 3)
        with pytest.raises(ValueError, match="router"):
            ReplicaFleet(
                dist_fact4,
                advice.selections[:2],
                cost_model=dist_model4,
                router=router,
            )


class TestSmoke:
    def test_smoke_passes_end_to_end(self, dist_log4, tmp_path):
        from repro.distributed.smoke import run_smoke

        log_path = str(tmp_path / "observed.jsonl")
        save_query_log(dist_log4[:150], log_path)
        report = run_smoke(4, log_path, n_partitions=3)
        smoke = report["smoke"]
        assert smoke["ok"], smoke
        assert smoke["wrong_answers"] == 0
        assert smoke["killed_replica"] == 0
        assert report["predicted_cost_ratio"] <= 1.0


class TestOneIdenticalBaseline:
    def test_every_divergent_path_prices_the_zero_filled_advise(self, tmp_path):
        """``repro partition``, ``repro replay --divergent`` and the
        divergent smoke price the same identical copies: strict 1-greedy
        on the observed counts over all 3^d patterns, unobserved at 0."""
        import json

        from repro.algorithms import RGreedy
        from repro.cli import main as cli_main
        from repro.core.costmodel import LinearCostModel
        from repro.core.qvgraph import QueryViewGraph
        from repro.core.query import enumerate_slice_queries
        from repro.cube.query_log import generate_query_log, pattern_counts
        from repro.datasets.tpcd import tpcd_serving_fact, tpcd_serving_schema
        from repro.distributed import (
            RoutingTable,
            advise_partitions,
            partition_workload,
        )
        from repro.distributed.smoke import run_smoke
        from repro.mining.candidates import DEFAULT_SIMILARITY

        schema = tpcd_serving_schema(3)
        log = generate_query_log(schema, 60, rng=0)
        log_path = tmp_path / "observed.jsonl"
        save_query_log(log, log_path)
        partition = tmp_path / "partition.json"
        telemetry = tmp_path / "telemetry.json"
        assert cli_main(
            ["partition", "--dims", "3", "--log", str(log_path),
             "--partitions", "3", "--output", str(partition)]
        ) == 0
        assert cli_main(
            ["replay", "--dims", "3", "--log", str(log_path), "--replicas",
             "3", "--divergent", "--telemetry", str(telemetry)]
        ) == 0
        ratios = [
            json.loads(partition.read_text())["predicted_cost_ratio"],
            json.loads(telemetry.read_text())["fleet"]["predicted_cost_ratio"],
            run_smoke(3, str(log_path), n_partitions=3)["predicted_cost_ratio"],
        ]

        model = LinearCostModel.from_fact(tpcd_serving_fact(3))
        lattice = model.lattice
        counts = pattern_counts(log)
        space = 3.0 * lattice.size(lattice.top)
        seed = (lattice.label(lattice.top),)
        zero_filled = {
            query: float(counts.get(query, 0))
            for query in enumerate_slice_queries(schema.names)
        }
        identical = RGreedy(1).run(
            QueryViewGraph.from_cube(lattice, frequencies=zero_filled),
            space,
            seed=seed,
        ).selected
        partitioned = partition_workload(
            counts, 3, similarity=DEFAULT_SIMILARITY
        )
        advice = advise_partitions(
            lattice, partitioned, RGreedy(1), space, seed=seed
        )
        expected = divergence_report(
            model, counts, advice, identical,
            partitioned=partitioned,
            router=RoutingTable(model, advice.selections),
        )["predicted_cost_ratio"]
        assert ratios == [expected] * 3
        assert expected == pytest.approx(0.9495, abs=5e-5)
