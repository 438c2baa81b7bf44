"""Tests for the performance-model substrate: metrics, models, cost."""

from dataclasses import fields, replace
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from repro.sim import calibration
from repro.sim.calibration import TICKS_PER_SECOND, TickError, ns
from repro.sim.cost import CpuCostModel
from repro.sim.metrics import Metrics
from repro.sim.models import DiskModel, NetworkModel


class TestMetrics:
    def test_task_time_is_io_plus_cpu(self):
        m = Metrics()
        m.charge_io(3 * TICKS_PER_SECOND // 2)
        m.charge_cpu(TICKS_PER_SECOND // 2)
        assert m.task_ticks == 2 * TICKS_PER_SECOND
        assert m.task_time == 2.0

    def test_add_merges_all_fields(self):
        a, b = Metrics(), Metrics()
        a.disk_bytes, a.records = 10, 1
        a.extra["x"] = 2
        b.disk_bytes, b.net_bytes = 5, 7
        b.extra["x"] = 3
        b.extra["y"] = 1
        a.add(b)
        assert a.disk_bytes == 15
        assert a.net_bytes == 7
        assert a.records == 1
        assert a.extra == {"x": 5, "y": 1}

    def test_total_bytes(self):
        m = Metrics()
        m.disk_bytes, m.net_bytes = 100, 50
        assert m.total_bytes_read == 150


class TestDiskModel:
    def test_bandwidth_and_seek_charges(self):
        disk = DiskModel(bytes_per_sec=1e6, seek_seconds=0.01)
        m = Metrics()
        disk.charge_read(m, 500_000, seeks=2)
        assert m.io_ticks == 52 * TICKS_PER_SECOND // 100
        assert m.disk_bytes == 500_000
        assert m.seeks == 2

    def test_bandwidth_scale_slows_reads(self):
        disk = DiskModel(bytes_per_sec=1e6, seek_seconds=0)
        m1, m2 = Metrics(), Metrics()
        disk.charge_read(m1, 1_000_000)
        disk.charge_read(m2, 1_000_000, bandwidth_scale=0.5)
        assert m2.io_ticks == 2 * m1.io_ticks

    def test_write_charge(self):
        disk = DiskModel(bytes_per_sec=2e6)
        m = Metrics()
        disk.charge_write(m, 1_000_000)
        assert m.io_ticks == TICKS_PER_SECOND // 2


class TestNetworkModel:
    def test_remote_read_slower_than_local_disk(self):
        disk, net = DiskModel(), NetworkModel()
        local, remote = Metrics(), Metrics()
        disk.charge_read(local, 1_000_000)
        net.charge_remote_read(remote, 1_000_000, transfers=1)
        assert remote.io_time > local.io_time

    def test_shuffle_charge(self):
        net = NetworkModel(shuffle_bytes_per_sec=1e6)
        m = Metrics()
        net.charge_shuffle(m, 500_000)
        assert m.io_ticks == TICKS_PER_SECOND // 2
        assert m.net_bytes == 500_000


class TestCalibration:
    def test_interleave_scale_shape(self):
        one = calibration.interleave_bandwidth_scale(1)
        thirteen = calibration.interleave_bandwidth_scale(13)
        eighty = calibration.interleave_bandwidth_scale(80)
        assert one == 1.0
        # 13 columns -> the paper's ~25% all-columns penalty.
        assert 0.75 < thirteen < 0.85
        assert eighty < thirteen

    def test_profiles_ordered_native_faster(self):
        managed = calibration.MANAGED_PROFILE
        native = calibration.NATIVE_PROFILE
        for field in (
            "int_decode", "double_decode", "map_entry",
            "string_decode_base", "text_parse_per_byte",
        ):
            assert getattr(native, field) < getattr(managed, field), field

    def test_lzo_cheaper_worse_positioning(self):
        p = calibration.MANAGED_PROFILE
        assert p.lzo_inflate_per_byte < p.zlib_inflate_per_byte

    def test_remote_slower_than_local(self):
        assert calibration.REMOTE_BYTES_PER_SEC < calibration.DISK_BYTES_PER_SEC


class TestCpuCostModel:
    def setup_method(self):
        self.cost = CpuCostModel()
        self.m = Metrics()

    def test_string_cost_scales_with_length(self):
        self.cost.charge_string(self.m, 10)
        short = self.m.cpu_time
        self.cost.charge_string(self.m, 1000)
        assert self.m.cpu_time - short > short

    def test_map_charges_objects(self):
        self.cost.charge_map(self.m, 5)
        assert self.m.objects == 6  # container + entries

    def test_cells_counted_per_primitive(self):
        self.cost.charge_int(self.m)
        self.cost.charge_double(self.m)
        self.cost.charge_string(self.m, 4)
        assert self.m.cells == 3

    def test_skip_discount(self):
        # exact: 0.4 of a charge, never a float multiply
        assert self.cost.skip_discount(ns(16)) == ns("6.4")

    def test_inflate_codec_dispatch(self):
        m_zlib, m_lzo = Metrics(), Metrics()
        self.cost.charge_inflate(m_zlib, "zlib", 1000)
        self.cost.charge_inflate(m_lzo, "lzo", 1000)
        assert m_lzo.cpu_time < m_zlib.cpu_time
        with pytest.raises(KeyError):
            self.cost.charge_inflate(Metrics(), "snappy", 10)

    def test_rcfile_rowgroup_scales_with_entries(self):
        m_small, m_large = Metrics(), Metrics()
        self.cost.charge_rcfile_rowgroup(m_small, 10)
        self.cost.charge_rcfile_rowgroup(m_large, 10_000)
        assert m_large.cpu_time > m_small.cpu_time

    def test_predicate_per_byte(self):
        self.cost.charge_predicate(self.m, 100)
        expected = 100 * self.cost.profile.predicate_per_byte
        assert self.m.cpu_ticks == expected


class TestTicks:
    """The rules that make simulated time exact: every charge is a whole
    number of ticks, an I/O charge rounds once, and sums are ints."""

    def test_profiles_hold_whole_ticks(self):
        for profile in (
            calibration.MANAGED_PROFILE, calibration.NATIVE_PROFILE,
        ):
            for f in fields(profile):
                kind = Fraction if f.name == "skip_fraction" else int
                assert type(getattr(profile, f.name)) is kind, f.name

    def test_sub_tick_constant_is_refused(self):
        with pytest.raises(TickError, match="raw_scan_per_byte"):
            replace(
                calibration.MANAGED_PROFILE, raw_scan_per_byte=ns("0.0005")
            )

    def test_sub_tick_skip_discount_is_refused(self):
        # 1 tick is whole, but 0.4 of it is not
        with pytest.raises(TickError, match="map_invoke \\* skip_fraction"):
            replace(calibration.MANAGED_PROFILE, map_invoke=ns("0.001"))

    def test_inexact_skip_fraction_is_refused(self):
        with pytest.raises(TickError, match="skip_fraction"):
            replace(calibration.MANAGED_PROFILE, skip_fraction=0.4)

    def test_shuffle_rounds_once_per_charge(self):
        net = NetworkModel()  # 30 MB/s: 33 333 1/3 ticks a byte
        once, per_byte = Metrics(), Metrics()
        net.charge_shuffle(once, 7)
        for _ in range(7):
            net.charge_shuffle(per_byte, 1)
        assert once.io_ticks == round(7 * TICKS_PER_SECOND / 30e6) == 233_333
        assert per_byte.io_ticks == 7 * 33_333

    def test_interleaved_read_is_whole_ticks(self):
        disk = DiskModel()
        for k in (2, 13, 80):
            m = Metrics()
            scale = calibration.interleave_bandwidth_scale(k)
            disk.charge_read(m, 12_288, bandwidth_scale=scale)
            assert m.io_ticks == 12_288 * 1000 * (49 + k)

    CHARGES = [
        ("io", 8 * 10**9), ("io", 233_333), ("cpu", 600), ("cpu", 16_000),
        ("cpu", 240), ("io", 50_000 * 4096), ("cpu", 50_000_000), ("cpu", 1),
        ("cpu", 600), ("io", 250_000 * 61),
    ]

    @given(st.permutations(CHARGES))
    def test_task_time_ignores_charge_order(self, charges):
        m = Metrics()
        for kind, ticks in charges:
            (m.charge_io if kind == "io" else m.charge_cpu)(ticks)
        total = sum(ticks for _, ticks in self.CHARGES)
        assert m.task_time == (m.io_ticks + m.cpu_ticks) / 10**12
        assert m.task_time == total / 10**12
