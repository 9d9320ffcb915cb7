"""Oracle: a node's precomputed watts table and inline procstat charging
are bit-identical to the power and accounting formulas they replace."""

import itertools

import pytest

from repro.hardware.activity import CpuActivity, is_busy_for_procstat
from repro.hardware.cluster import Cluster
from repro.hardware.cpu import SimCPU
from repro.hardware.dvfs import OperatingPoint, PENTIUM_M_1400
from repro.hardware.procstat import ProcStat, ProcStatSample
from repro.hardware.scaling import CORE_IO, tech_node
from repro.hardware.spec import ClusterSpec, NodeSpec
from repro.sim.factory import make_engine

SPEC = ClusterSpec(
    groups=(
        NodeSpec(count=1),
        NodeSpec(count=1, tech=tech_node(22, "itrs"), core=CORE_IO),
    )
)
UTILIZATIONS = (1.0, 0.4, 0.0)
CORE_FRACTIONS = (1.0, 0.5)


@pytest.fixture(scope="module")
def cluster():
    return Cluster.from_spec(SPEC)


def last_watts(node):
    return node.timeline.segments()[-1][1]


def test_spec_covers_both_ladders(cluster):
    base, scaled = cluster.nodes
    assert base.table.points == PENTIUM_M_1400.points
    assert scaled.table.points != PENTIUM_M_1400.points


@pytest.mark.parametrize("node_id", [0, 1])
def test_timeline_watts_equal_formula_bitwise(cluster, node_id):
    node = cluster.nodes[node_id]
    cpu, model = node.cpu, node.power_model
    checked = 0
    for point, fraction, nic in itertools.product(
        node.table, CORE_FRACTIONS, (False, True)
    ):
        cpu.set_frequency(point)
        cpu.set_core_allocation(fraction)
        node.set_nic_active(nic)
        for state, floor, u in itertools.product(
            CpuActivity, CpuActivity, UTILIZATIONS
        ):
            cpu.set_state(state, u, floor)
            expected = model.power(
                point, state, u, nic_active=nic, floor=floor,
                core_fraction=fraction,
            )
            assert last_watts(node) == expected, (point, state, floor, u)
            # The table path is open exactly on all cores.
            assert (cpu._slot >= 0) == (fraction == 1.0)
            checked += 1
    assert checked == len(node.table) * 2 * 2 * len(CpuActivity) ** 2 * 3
    cpu.set_core_allocation(1.0)
    node.set_nic_active(False)


@pytest.mark.parametrize("node_id", [0, 1])
def test_foreign_point_takes_the_formula_path(cluster, node_id):
    node = cluster.nodes[node_id]
    cpu = node.cpu
    table = node.table
    for point in table:
        twin = OperatingPoint(point.frequency, point.voltage)
        # Leave the twin's frequency first: a same-frequency switch is a no-op.
        cpu.set_frequency(table.fastest if point is table.slowest else table.slowest)
        cpu.set_frequency(twin)
        assert cpu._slot == -1
        for state in CpuActivity:
            cpu.set_state(state, 1.0)
            assert last_watts(node) == node.power_model.power(twin, state)
    cpu.set_frequency(table.slowest)
    cpu.set_frequency(table.fastest)
    assert cpu._slot == len(table) - 1


@pytest.mark.parametrize("node_id", [0, 1])
def test_gated_and_crashed_nodes(node_id):
    node = Cluster.from_spec(SPEC).nodes[node_id]
    cpu, model = node.cpu, node.power_model
    cpu.enable_power_gating()
    cpu.set_state(CpuActivity.ACTIVE)
    cpu.suspend()
    assert cpu._slot == -1
    assert last_watts(node) == model.gated_power
    node.set_nic_active(True)
    assert last_watts(node) == model.gated_power
    cpu.power_on(node.table.slowest)
    assert cpu._slot == 0
    assert last_watts(node) == model.power(
        node.table.slowest, CpuActivity.ACTIVE, nic_active=True
    )
    cpu.power_off()
    assert last_watts(node) == 0.0
    cpu.power_on()
    assert last_watts(node) == model.power(
        node.table.fastest, CpuActivity.ACTIVE, nic_active=True
    )


#: (state, utilization, floor, seconds) segments, durations chosen so the
#: counters accumulate rounding error.
SEGMENTS = [
    (state, u, floor, 0.1 * (i + 1) / 3.0)
    for i, (state, u, floor) in enumerate(
        itertools.product(CpuActivity, UTILIZATIONS, CpuActivity)
    )
]


@pytest.mark.parametrize("spin_counts_busy", [True, False])
def test_procstat_fast_path_equals_blended_formula(spin_counts_busy):
    engine = make_engine()
    cpu = SimCPU(engine, PENTIUM_M_1400, ProcStat(spin_counts_busy))
    marks = [(engine.now, cpu.state, cpu.utilization, cpu.floor)]

    def drive():
        for state, u, floor, seconds in SEGMENTS:
            cpu.set_state(state, u, floor)
            marks.append((engine.now, state, u, floor))
            yield engine.timeout(seconds)

    engine.process(drive())
    engine.run()
    cpu.finalize()

    def counts_busy(state):
        if state is CpuActivity.SPIN and not spin_counts_busy:
            return 0.0
        return float(is_busy_for_procstat(state))

    # The blended formula, charged once per closed segment.
    busy = idle = 0.0
    closes = [m[0] for m in marks[1:]] + [engine.now]
    start = marks[0][0]
    for (_, state, u, floor), end in zip(marks, closes):
        duration = end - start
        if duration > 0:
            frac = u * counts_busy(state) + (1.0 - u) * counts_busy(floor)
            busy += duration * frac
            idle += duration * (1.0 - frac)
        start = end
    assert cpu.procstat.snapshot() == ProcStatSample(busy=busy, idle=idle)
