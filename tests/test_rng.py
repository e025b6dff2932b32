import numpy as np

from conftest import random_matrix
from polycrit.rng import MASK64, RNG_ID, Xoshiro256StarStar, random_zeros, splitmix64

# Published reference outputs of splitmix64 for state 0.
SPLITMIX64_SEED0 = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
]


def test_splitmix64_known_answers():
    stream = splitmix64(0)
    assert [next(stream) for _ in range(4)] == SPLITMIX64_SEED0


def test_streams_are_deterministic():
    a = Xoshiro256StarStar(42)
    b = Xoshiro256StarStar(42)
    assert [a.next_u64() for _ in range(64)] == [b.next_u64() for _ in range(64)]


def test_different_seeds_differ():
    a = Xoshiro256StarStar(1)
    b = Xoshiro256StarStar(2)
    assert [a.next_u64() for _ in range(8)] != [b.next_u64() for _ in range(8)]


def test_words_fit_64_bits():
    g = Xoshiro256StarStar(7)
    for _ in range(1000):
        assert 0 <= g.next_u64() <= MASK64


def test_uniform_range_and_rough_mean():
    g = Xoshiro256StarStar(123)
    xs = [g.uniform() for _ in range(4000)]
    assert all(0.0 <= x < 1.0 for x in xs)
    assert abs(np.mean(xs) - 0.5) < 0.03


def test_unit_disk_membership():
    g = Xoshiro256StarStar(5)
    pts = [g.unit_disk() for _ in range(500)]
    assert all(abs(z) <= 1.0 for z in pts)


def test_random_zeros_real_constraint():
    g = Xoshiro256StarStar(9)
    z = random_zeros(g, 20, real=True)
    assert np.all(z.imag == 0.0)
    assert np.all(np.abs(z.real) <= 1.0)


def test_random_matrix_shape_and_box():
    g = Xoshiro256StarStar(11)
    m = random_matrix(g, 5)
    assert m.shape == (5, 5)
    assert np.max(np.abs(m.real)) <= 1.0
    assert np.max(np.abs(m.imag)) <= 1.0


def test_rng_identifier_is_stable():
    assert "xoshiro256**" in RNG_ID
