"""Figure 8: deserialization and object-creation overhead."""

import pytest

from repro.bench import fig8_deserialization as fig8


@pytest.fixture(scope="module")
def result():
    res = fig8.run(records=100)
    print("\n" + fig8.format_table(res))
    return res


class TestPaperShape:
    def test_bandwidth_falls_as_fraction_rises(self, result):
        for profile in ("managed", "native"):
            for typed in ("integers", "doubles", "maps"):
                series = result.series(profile, typed)
                values = [series[f] for f in sorted(series)]
                assert all(a >= b for a, b in zip(values, values[1:]))

    def test_native_beats_managed(self, result):
        for typed in ("integers", "doubles", "maps"):
            managed = result.series("managed", typed)
            native = result.series("native", typed)
            for fraction in managed:
                if fraction > 0:
                    assert native[fraction] > managed[fraction]

    def test_managed_maps_drop_below_disk_bandwidth(self, result):
        # Paper: "when f exceeds 60%, the rate at which maps are
        # deserialized can be slower than the bandwidth of a typical
        # SATA disk" (~100 MB/s).
        series = result.series("managed", "maps")
        assert series[0.6] < 100.0
        assert series[1.0] < 100.0

    def test_managed_integers_land_near_paper_rate(self, result):
        # Figure 8 shows Java integers around ~250 MB/s at f=1.0.
        assert 100.0 < result.series("managed", "integers")[1.0] < 500.0

    def test_native_primitives_stay_near_memory_bandwidth(self, result):
        assert result.series("native", "integers")[1.0] > 1000.0
        assert result.series("native", "doubles")[1.0] > 1000.0
