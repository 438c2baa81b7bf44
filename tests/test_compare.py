"""The one comparison rule behind ``bench check`` and ``perf diff``
(``repro.util.compare``): unit cases, then generated ones.

The views' folds are tested where they live: ``test_bench_regress``
(``TestCompare``), ``test_analysis`` (``TestDiffRuns``) and
``test_opprofile`` (``TestDiffAttribution``).
"""

from hypothesis import given, strategies as st

from repro.util.compare import DIRECTIONS, compare

KEYS = ["k0", "k1", "k2", "k3", "k4", "k5"]

numbers = st.one_of(
    st.integers(-10**6, 10**6),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)
sides = st.dictionaries(st.sampled_from(KEYS), numbers, max_size=len(KEYS))
directions = st.fixed_dictionaries(
    {key: st.sampled_from(DIRECTIONS) for key in KEYS}
)
tolerances = st.floats(0, 1e6, allow_nan=False, allow_infinity=False)


def verdicts(diff):
    return {entry.key: entry.severity for entry in diff.entries}


def same(way):
    return lambda key: way


class TestRule:
    def test_each_direction_names_its_move(self):
        a = {"lower": 1.0, "higher": 1.0, "exact": 1, "drift": 1.0}
        b = {"lower": 2.0, "higher": 2.0, "exact": 2, "drift": 2.0}
        diff = compare(a, b, lambda key: key, 0.0)
        assert verdicts(diff) == {
            "lower": "regression", "higher": "improvement",
            "exact": "regression", "drift": "drift",
        }
        assert diff.compared == 4 and not diff.ok
        assert [e.key for e in diff.drifts] == ["drift"]

    def test_exact_ignores_every_tolerance(self):
        diff = compare({"n": 100}, {"n": 101}, same("exact"), 0.5, 10.0)
        assert verdicts(diff) == {"n": "regression"}

    def test_a_band_is_the_larger_of_abs_and_rel(self):
        assert compare({"t": 1.0}, {"t": 1.5}, same("lower"), 0.0, 0.5).ok
        assert not compare({"t": 1.0}, {"t": 1.6}, same("lower"), 0.0, 0.5).ok
        assert compare({"t": 10.0}, {"t": 14.0}, same("lower"), 0.5, 0.1).ok

    def test_the_band_is_measured_against_a(self):
        # +1.005 % from a is beyond 1 %, though it is within 1 % of b;
        # the same move back, -1.005 % of 101.005, is not
        up = compare({"t": 100.0}, {"t": 101.005}, same("lower"), 0.01)
        assert verdicts(up) == {"t": "regression"}
        down = compare({"t": 101.005}, {"t": 100.0}, same("lower"), 0.01)
        assert down.entries == []

    def test_one_side_only_is_new_or_gone(self):
        diff = compare({"old": 1}, {"fresh": 2}, same("exact"), 0.0)
        assert verdicts(diff) == {"old": "gone", "fresh": "new"}
        gone, new = diff.entries
        assert (gone.a, gone.b, new.a, new.b) == (1, None, None, 2)
        assert diff.ok  # neither is a regression; a view decides

    def test_entries_follow_a_then_b(self):
        a = {"z": 1, "m": 1}
        b = {"q": 2, "m": 2, "z": 2}
        diff = compare(a, b, same("drift"), 0.0)
        assert [e.key for e in diff.entries] == ["z", "m", "q"]

    def test_rel_is_relative_to_a(self):
        (entry,) = compare({"t": 4.0}, {"t": 5.0}, same("lower"), 0.0).entries
        assert (entry.delta, entry.rel) == (1.0, 0.25)
        (entry,) = compare({"t": 0}, {"t": 5}, same("lower"), 0.0).entries
        assert entry.rel == float("inf")


class TestProperties:
    @given(side=sides, way=directions, rel_tol=tolerances, abs_tol=tolerances)
    def test_a_side_against_itself_is_empty(self, side, way, rel_tol, abs_tol):
        diff = compare(side, dict(side), way.__getitem__, rel_tol, abs_tol)
        assert diff.entries == [] and diff.compared == len(side)

    @given(a=sides, b=sides, way=directions, abs_tol=tolerances)
    def test_swapping_sides_swaps_the_verdicts(self, a, b, way, abs_tol):
        swapped = {
            "regression": "improvement", "improvement": "regression",
            "new": "gone", "gone": "new",
        }
        forward = verdicts(compare(a, b, way.__getitem__, 0.0, abs_tol))
        backward = verdicts(compare(b, a, way.__getitem__, 0.0, abs_tol))
        assert backward == {
            key: (
                severity if way[key] in ("exact", "drift")
                and severity not in ("new", "gone")
                else swapped[severity]
            )
            for key, severity in forward.items()
        }

    @given(
        a=st.integers(-2**20, 2**20),
        sixty_fourths=st.integers(0, 64),
        sign=st.sampled_from([1, -1]),
        way=st.sampled_from(["lower", "higher", "drift"]),
    )
    def test_a_move_of_exactly_the_band_is_not_reported(
        self, a, sixty_fourths, sign, way
    ):
        # multiples of 1/64 below 2**28: every sum here is exact
        rel_tol = sixty_fourths / 64
        band = rel_tol * abs(a)
        at = compare({"k": a}, {"k": a + sign * band}, same(way), rel_tol)
        assert at.entries == []
        beyond = a + sign * (band + 1 / 64)
        past = compare({"k": a}, {"k": beyond}, same(way), rel_tol)
        assert len(past.entries) == 1
