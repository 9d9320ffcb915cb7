"""The serving data path: queue discipline, spans, drops, timeouts."""

import pytest

from repro.hardware.scaling import CORE_IO, tech_node
from repro.hardware.spec import ClusterSpec, NodeSpec
from repro.serving.arrivals import PoissonArrivals
from repro.serving.policy import StaticServingPolicy
from repro.serving.records import REQUEST_STATUSES
from repro.serving.runner import run_serving
from repro.serving.spec import RequestSpec, ServingWorkload, TierSpec


def workload(**overrides):
    defaults = dict(
        tiers=(
            TierSpec("fe", nodes=1, service_cycles=1.0e6),
            TierSpec("app", nodes=2, service_cycles=4.0e6),
        ),
        arrivals=PoissonArrivals(40.0, seed=2),
        horizon_s=1.5,
        timeout_s=5.0,
    )
    defaults.update(overrides)
    return ServingWorkload(**defaults)


@pytest.fixture(scope="module")
def run():
    return run_serving(workload())


class TestSpec:
    def test_requests_are_pre_materialised_in_arrival_order(self):
        w = workload()
        requests = w.requests()
        assert requests == w.requests()  # pure function of the spec
        assert [r.request_id for r in requests] == list(range(len(requests)))
        arrivals = [r.arrival_s for r in requests]
        assert arrivals == sorted(arrivals)
        assert all(len(r.demands) == len(w.tiers) for r in requests)
        assert all(d > 0 for r in requests for d in r.demands)

    def test_fixed_distribution_pins_every_demand(self):
        w = workload(
            tiers=(TierSpec("only", 1, 2.0e6, distribution="fixed"),)
        )
        assert all(r.demands == (2.0e6,) for r in w.requests())

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="unique"):
            workload(tiers=(TierSpec("a", 1, 1e6), TierSpec("a", 1, 1e6)))
        with pytest.raises(ValueError, match="at least one tier"):
            workload(tiers=())
        with pytest.raises(TypeError, match="times"):
            workload(arrivals=object())
        with pytest.raises(ValueError, match="distribution"):
            TierSpec("a", 1, 1e6, distribution="pareto")
        with pytest.raises(ValueError, match="queue_capacity"):
            TierSpec("a", 1, 1e6, queue_capacity=0)


class TestHappyPath:
    def test_every_arrival_resolves_exactly_once(self, run):
        n = len(run.workload.requests())
        assert len(run.records) == n
        assert [r.request_id for r in run.records] == list(range(n))
        assert all(r.status in REQUEST_STATUSES for r in run.records)

    def test_unloaded_run_completes_everything(self, run):
        assert all(r.status == "ok" for r in run.records)

    def test_ok_requests_traverse_every_tier_in_order(self, run):
        names = run.workload.tier_names
        for record in run.records:
            assert tuple(s.tier for s in record.spans) == names
            for span in record.spans:
                assert span.enqueued_s <= span.started_s <= span.finished_s
                assert span.wait_s >= 0.0
                assert span.service_s > 0.0
            for a, b in zip(record.spans, record.spans[1:]):
                assert b.enqueued_s >= a.finished_s
            assert record.resolved_s == record.spans[-1].finished_s
            assert record.latency_s > 0.0

    def test_spans_land_on_the_tiers_own_nodes(self, run):
        groups = {}
        offset = 0
        for spec in run.workload.tiers:
            groups[spec.name] = set(range(offset, offset + spec.nodes))
            offset += spec.nodes
        for record in run.records:
            for span in record.spans:
                assert span.node_id in groups[span.tier]

    def test_fifo_service_order_per_tier_node(self, run):
        """On any one node, service starts in the order work arrived."""
        by_node = {}
        for record in run.records:
            for span in record.spans:
                by_node.setdefault(span.node_id, []).append(span)
        for spans in by_node.values():
            starts = [s.started_s for s in spans]
            enqueues = [s.enqueued_s for s in spans]
            assert starts == sorted(starts)
            assert enqueues == sorted(enqueues)

    def test_window_and_energy(self, run):
        assert run.end >= run.workload.horizon_s
        assert run.duration_s == run.end - run.start
        assert run.energy_j > 0.0


class TestOverload:
    def test_bounded_queue_sheds_load(self):
        over = run_serving(
            workload(
                tiers=(
                    TierSpec("fe", 1, 1.0e6),
                    TierSpec("app", 1, 40.0e6, queue_capacity=2),
                ),
                arrivals=PoissonArrivals(120.0, seed=5),
                horizon_s=1.0,
                timeout_s=30.0,
            )
        )
        dropped = [r for r in over.records if r.status == "dropped"]
        assert dropped
        # A request dropped at the app queue served the frontend only.
        assert all(
            tuple(s.tier for s in r.spans) == ("fe",) for r in dropped
        )
        assert len(over.records) == len(over.workload.requests())

    def test_stale_requests_time_out_at_dequeue(self):
        slow = run_serving(
            workload(
                tiers=(TierSpec("app", 1, 20.0e6),),
                arrivals=PoissonArrivals(150.0, seed=6),
                horizon_s=1.0,
                timeout_s=0.05,
            )
        )
        timed_out = [r for r in slow.records if r.status == "timeout"]
        assert timed_out
        assert all(not r.spans for r in timed_out)  # discarded unserved
        assert all(
            r.resolved_s - r.arrival_s > slow.workload.timeout_s
            for r in timed_out
        )

    def test_empty_request_stream_is_a_clean_run(self):
        class NoArrivals:
            def times(self, horizon_s):
                return ()

        quiet = run_serving(workload(arrivals=NoArrivals()))
        assert quiet.records == ()
        assert quiet.end == quiet.workload.horizon_s
        assert quiet.energy_j > 0.0  # idle power still accrues


class TestRecords:
    def test_request_record_properties(self):
        from repro.serving.records import RequestRecord, TierSpan

        span = TierSpan("app", 3, 1.0, 1.25, 1.5)
        assert span.wait_s == pytest.approx(0.25)
        assert span.service_s == pytest.approx(0.25)
        assert span.residence_s == pytest.approx(0.5)
        record = RequestRecord(7, 0.9, 1.5, "ok", (span,))
        assert record.ok
        assert record.latency_s == pytest.approx(0.6)
        assert not RequestRecord(8, 0.9, 1.5, "timeout", ()).ok

    def test_request_spec_is_frozen(self):
        spec = RequestSpec(0, 0.0, (1.0,))
        with pytest.raises(AttributeError):
            spec.arrival_s = 1.0


class TestClusterSpec:
    def test_default_spec_is_the_homogeneous_cluster(self, run):
        explicit = run_serving(workload(), spec=ClusterSpec.homogeneous(3))
        assert explicit.records == run.records
        assert explicit.energy_j == run.energy_j

    def test_heterogeneous_spec_runs_end_to_end(self, run):
        # The app tier runs on in-order cores two generations on.
        spec = ClusterSpec(
            groups=(
                NodeSpec(count=1),
                NodeSpec(count=2, tech=tech_node(22, "itrs"), core=CORE_IO),
            )
        )
        mixed = run_serving(workload(), spec=spec)
        fe, app, _ = mixed.cluster.nodes
        assert app.table is not fe.table
        assert app.cpu.cycles_per_work == CORE_IO.cycles_per_work
        assert len(mixed.records) == len(run.records)
        assert all(record.ok for record in mixed.records)
        demands = {r.request_id: r.demands for r in workload().requests()}
        for record in mixed.records:
            fe_span, app_span = record.spans
            node = mixed.cluster.nodes[app_span.node_id]
            expected = (
                demands[record.request_id][1]
                * CORE_IO.cycles_per_work
                / node.cpu.frequency
            )
            assert app_span.service_s == pytest.approx(expected, rel=1e-9)
        assert mixed.energy_j != run.energy_j

    def test_static_max_pins_every_node_at_its_own_fastest_point(self):
        spec = ClusterSpec(
            groups=(
                NodeSpec(count=1),
                NodeSpec(count=2, tech=tech_node(22, "itrs"), core=CORE_IO),
            )
        )
        mixed = run_serving(workload(), StaticServingPolicy(), spec=spec)
        fe, app, _ = mixed.cluster.nodes
        assert app.table.fastest.frequency != fe.table.fastest.frequency
        for node in mixed.cluster.nodes:
            assert node.cpu.frequency == node.table.fastest.frequency

    def test_spec_must_match_the_tier_nodes(self):
        with pytest.raises(ValueError, match="cluster spec has 2 nodes"):
            run_serving(workload(), spec=ClusterSpec.homogeneous(2))
