import numpy as np
import pytest

from cepgeo import sampling
from cepgeo.sampling import sample_root_tuples

from conftest import serial_root_tuples


@pytest.mark.parametrize("n", [1, 2, 4, 8])
@pytest.mark.parametrize("min_separation", [0.0, 1e-4, 0.3])
def test_matches_serial_draws_bitwise(n, min_separation):
    got = sample_root_tuples(5, 300, n, 1.0 - 1e-6, min_separation)
    ref = serial_root_tuples(5, 300, n, 1.0 - 1e-6, min_separation)
    assert np.array_equal(got, ref)


def test_matches_serial_draws_over_many_rounds(monkeypatch):
    # rounds of 7 tuples of n = 4, most of them rejected: acceptance crosses
    # every round boundary
    monkeypatch.setattr(sampling, "_ROUND_BYTES", 7 * 16 * 4 * 4)
    got = sample_root_tuples(3, 20, 4, 0.9, 0.6)
    assert np.array_equal(got, serial_root_tuples(3, 20, 4, 0.9, 0.6))


def test_matches_serial_draws_past_one_round():
    samples = 2 * sampling._ROUND_BYTES // (16 * 2 * 2) + 11
    assert np.array_equal(
        sample_root_tuples(8, samples, 2, 0.999, 1e-2),
        serial_root_tuples(8, samples, 2, 0.999, 1e-2),
    )


@pytest.mark.parametrize("n, min_separation", [(2, 0.0), (4, 0.6), (8, 0.3)])
def test_generator_ends_in_the_serial_state(n, min_separation):
    rng, ref_rng = np.random.default_rng(17), np.random.default_rng(17)
    got = sample_root_tuples(rng, 40, n, 0.9, min_separation)
    ref = serial_root_tuples(ref_rng, 40, n, 0.9, min_separation)
    assert np.array_equal(got, ref)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert rng.random() == ref_rng.random()


def _raises(sampler, **kwargs):
    try:
        sampler(3, 20, 4, 0.9, 0.6, **kwargs)
    except RuntimeError:
        return True
    return False


@pytest.mark.parametrize("round_bytes", [7 * 16 * 4 * 4, sampling._ROUND_BYTES])
def test_rejection_budget_raises_in_the_serial_cases(monkeypatch, round_bytes):
    # seed 3 draws 363 rejections before 20 tuples of n = 4 at separation 0.6
    monkeypatch.setattr(sampling, "_ROUND_BYTES", round_bytes)
    for budget in (0, 1, 50, 361, 362, 363, 364, 1000):
        expected = _raises(serial_root_tuples, max_rejections=budget)
        assert _raises(sample_root_tuples, max_rejections=budget) == expected, budget
    assert _raises(sample_root_tuples, max_rejections=362)
    assert not _raises(sample_root_tuples, max_rejections=363)
