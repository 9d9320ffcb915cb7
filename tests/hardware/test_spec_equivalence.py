"""The spec layer: validation, heterogeneous construction in group
order, and the keyword-only :meth:`Cluster.from_spec` surface."""

import inspect

import pytest

from repro.dvs.strategy import StaticStrategy
from repro.analysis.runner import run_measured
from repro.hardware.cluster import Cluster
from repro.hardware.dvfs import PENTIUM_M_1400
from repro.hardware.scaling import CORE_IO, tech_node
from repro.hardware.spec import ClusterSpec, NodeSpec
from repro.workloads.nas_ft import NasFT


class TestSpecValidation:
    def test_node_spec_rejects_empty_group(self):
        with pytest.raises(ValueError, match="count"):
            NodeSpec(count=0)

    def test_node_spec_rejects_empty_points_override(self):
        with pytest.raises(ValueError, match="points"):
            NodeSpec(count=1, points=())

    def test_cluster_spec_rejects_no_groups(self):
        with pytest.raises(ValueError, match="group"):
            ClusterSpec(groups=())

    def test_counts_and_homogeneity(self):
        spec = ClusterSpec(
            groups=(NodeSpec(count=3), NodeSpec(count=5, core=CORE_IO))
        )
        assert spec.n_nodes == 8
        assert not spec.is_homogeneous
        assert ClusterSpec.homogeneous(4).is_homogeneous

    def test_describe_names_every_group(self):
        spec = ClusterSpec(
            groups=(
                NodeSpec(count=2, tech=tech_node(16, "itrs")),
                NodeSpec(count=2, tech=tech_node(8, "itrs"), core=CORE_IO),
            )
        )
        assert spec.describe() == "2x16nm/itrs:o3 + 2x8nm/itrs:io"

    def test_default_ladder_is_the_shared_table_object(self):
        assert NodeSpec(count=1).ladder() is PENTIUM_M_1400


class TestHeterogeneousConstruction:
    def test_groups_get_their_own_silicon_in_declaration_order(self):
        spec = ClusterSpec(
            groups=(
                NodeSpec(count=2),
                NodeSpec(count=2, tech=tech_node(16, "itrs"), core=CORE_IO),
            )
        )
        cluster = Cluster.from_spec(spec)
        assert cluster.n_nodes == 4
        assert [n.node_id for n in cluster.nodes] == [0, 1, 2, 3]
        base, scaled = cluster.nodes[0], cluster.nodes[2]
        assert base.table is PENTIUM_M_1400
        assert scaled.table.fastest.frequency > base.table.fastest.frequency
        assert base.cpu.cycles_per_work == 1.0
        assert scaled.cpu.cycles_per_work == CORE_IO.cycles_per_work
        assert cluster.fabric.n_nodes == 4

    def test_oversized_spec_leaves_extra_nodes_idle(self):
        wl = NasFT("S", n_ranks=2, iterations=1)
        run = run_measured(wl, StaticStrategy(1.4e9), spec=ClusterSpec.homogeneous(3))
        assert run.cluster.n_nodes == 3

    def test_undersized_spec_rejected(self):
        wl = NasFT("S", n_ranks=4, iterations=1)
        with pytest.raises(ValueError, match="needs"):
            run_measured(wl, StaticStrategy(1.4e9), spec=ClusterSpec.homogeneous(2))

    def test_factory_and_spec_are_mutually_exclusive(self):
        wl = NasFT("S", n_ranks=2, iterations=1)
        with pytest.raises(ValueError, match="not both"):
            run_measured(
                wl,
                StaticStrategy(1.4e9),
                cluster_factory=lambda: Cluster.from_spec(
                    ClusterSpec.homogeneous(2)
                ),
                spec=ClusterSpec.homogeneous(2),
            )


class TestSignatureSync:
    def test_from_spec_options_are_keyword_only(self):
        sig = inspect.signature(Cluster.from_spec)
        for name, param in sig.parameters.items():
            if name == "spec":
                continue
            assert param.kind is inspect.Parameter.KEYWORD_ONLY, (
                f"Cluster.from_spec({name}) must be keyword-only"
            )
