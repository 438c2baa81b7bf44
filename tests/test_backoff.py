"""Property tests for the seeded retry-backoff policy.

The cluster WAL's crash-resume and every committed cluster baseline
assume the retry schedule is a pure function of ``(seed, key,
attempt)``: same inputs, same delay, forever.  These properties pin
that contract — determinism, the cap, non-negativity, and genuine
decorrelation across seeds/keys — with Hypothesis driving the config
space instead of a handful of hand-picked examples.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapreduce.backoff import BackoffConfig, ExponentialBackoff

configs = st.builds(
    BackoffConfig,
    base=st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    factor=st.floats(min_value=1.0, max_value=4.0, allow_nan=False),
    cap=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    jitter=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
keys = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126),
    min_size=1, max_size=24,
)
attempts = st.integers(min_value=0, max_value=12)


@settings(max_examples=150)
@given(config=configs, key=keys, attempt=attempts)
def test_delay_is_deterministic_per_seed_key_attempt(config, key, attempt):
    """Two oracles over the same config agree on every delay."""
    first = ExponentialBackoff(config).delay(key, attempt)
    second = ExponentialBackoff(config).delay(key, attempt)
    assert first == second


@settings(max_examples=150)
@given(config=configs, key=keys, attempt=attempts)
def test_delay_capped_and_non_negative(config, key, attempt):
    delay = ExponentialBackoff(config).delay(key, attempt)
    assert delay >= 0.0
    # jitter spreads at most +jitter/2 above the capped raw delay
    assert delay <= config.cap * (1.0 + config.jitter / 2) + 1e-12


@settings(max_examples=100)
@given(config=configs, key=keys)
def test_identical_runs_produce_identical_schedules(config, key):
    """A full retry ladder replays exactly — the WAL-resume property."""
    first = [ExponentialBackoff(config).delay(key, a) for a in range(8)]
    second = [ExponentialBackoff(config).delay(key, a) for a in range(8)]
    assert first == second


@settings(max_examples=100)
@given(
    key=keys,
    attempt=attempts,
    seed_a=st.integers(min_value=0, max_value=1000),
    seed_b=st.integers(min_value=0, max_value=1000),
)
def test_seeds_decorrelate_jitter(key, attempt, seed_a, seed_b):
    """Different seeds may disagree; the same seed never does."""
    config_a = BackoffConfig(seed=seed_a)
    config_b = BackoffConfig(seed=seed_b)
    delay_a = ExponentialBackoff(config_a).delay(key, attempt)
    delay_b = ExponentialBackoff(config_b).delay(key, attempt)
    if seed_a == seed_b:
        assert delay_a == delay_b


def test_distinct_keys_spread_the_herd():
    """Simultaneous failures on different tasks draw different jitter."""
    oracle = ExponentialBackoff(BackoffConfig(seed=7))
    delays = {oracle.delay(f"job{i}:split{i}", 0) for i in range(16)}
    assert len(delays) > 1


def test_zero_base_disables_backoff():
    oracle = ExponentialBackoff(BackoffConfig(base=0.0))
    assert oracle.delay("anything", 5) == 0.0


def test_jitterless_growth_is_exponential_until_cap():
    config = BackoffConfig(base=0.1, factor=2.0, cap=0.5, jitter=0.0)
    oracle = ExponentialBackoff(config)
    assert oracle.delay("k", 0) == 0.1
    assert oracle.delay("k", 1) == 0.2
    assert oracle.delay("k", 2) == 0.4
    assert oracle.delay("k", 3) == 0.5  # capped
    assert oracle.delay("k", 10) == 0.5
