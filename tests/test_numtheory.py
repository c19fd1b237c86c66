import cmath
import math
import random

import pytest

from qtopo.numtheory import (
    _PROVEN_BELOW,
    Character,
    ModK,
    discrete_log,
    gauss_sum_brute,
    gauss_sum_closed,
    is_generator,
    is_prime,
    legendre_chi,
    primitive_root,
    require_coprime,
)

ODD_PRIMES_TO_101 = [p for p in range(3, 102) if is_prime(p)]


class TestLegendreChi:
    @pytest.mark.parametrize(
        "n,k,expected",
        [(2, 5, -1), (0, 7, 0), (4, 5, 1), (1, 3, 1), (2, 3, -1), (-1, 5, 1), (7, 7, 0)],
    )
    def test_values(self, n, k, expected):
        assert legendre_chi(n, k) == expected

    @pytest.mark.parametrize("k", [2, 4, 1, 9, 15, -7])
    def test_rejects_bad_modulus(self, k):
        with pytest.raises(ValueError):
            legendre_chi(1, k)

    def test_periodicity(self):
        for k in (5, 7, 13):
            for n in range(-2 * k, 2 * k):
                assert legendre_chi(n, k) == legendre_chi(n % k, k)

    def test_multiplicativity_random_pairs(self):
        rng = random.Random(1234)
        for _ in range(1000):
            k = rng.choice(ODD_PRIMES_TO_101)
            a, b = rng.randrange(k), rng.randrange(k)
            assert legendre_chi(a * b, k) == legendre_chi(a, k) * legendre_chi(b, k)

    def test_residue_counts_balance(self):
        for k in (3, 5, 7, 11, 13, 101):
            table = [legendre_chi(n, k) for n in range(k)]
            assert table[0] == 0
            assert table.count(1) == (k - 1) // 2
            assert table.count(-1) == (k - 1) // 2


class TestCharacter:
    def test_table_matches_pointwise(self):
        for k in [p for p in range(3, 200) if is_prime(p)] + [1009, 1021]:
            assert Character.legendre(k).table == tuple(legendre_chi(n, k) for n in range(k))

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            Character.legendre(9)


class TestPrimitiveRoot:
    @pytest.mark.parametrize("k,expected", [(5, 2), (7, 3), (3, 2), (11, 2), (13, 2)])
    def test_smallest_generator(self, k, expected):
        assert primitive_root(k) == expected

    def test_generates_whole_group(self):
        for k in (5, 7, 13, 101):
            g = primitive_root(k)
            assert sorted(pow(g, x, k) for x in range(k - 1)) == list(range(1, k))

    def test_rejects_non_prime(self):
        with pytest.raises(ValueError):
            primitive_root(9)


class TestDiscreteLog:
    @pytest.mark.parametrize("n,g,k,expected", [(3, 2, 5, 3), (1, 2, 5, 0), (6, 3, 7, 3)])
    def test_values(self, n, g, k, expected):
        assert discrete_log(n, g, k) == expected

    def test_round_trip(self):
        for k in (5, 7, 13, 101):
            g = primitive_root(k)
            for x in range(k - 1):
                assert discrete_log(pow(g, x, k), g, k) == x

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            discrete_log(0, 2, 5)

    def test_non_generator_rejected(self):
        assert not is_generator(4, 5)  # 4 has order 2 mod 5
        with pytest.raises(ValueError):
            discrete_log(3, 4, 5)


class TestGaussSumBrute:
    def test_k5_unit(self):
        assert cmath.isclose(gauss_sum_brute(5, 1), math.sqrt(5), abs_tol=1e-12)

    def test_k3_unit(self):
        assert cmath.isclose(gauss_sum_brute(3, 1), -1j * math.sqrt(3), abs_tol=1e-12)

    def test_k5_twisted(self):
        assert cmath.isclose(gauss_sum_brute(5, 2), -math.sqrt(5), abs_tol=1e-12)

    def test_zero_coefficient_sums_units(self):
        for k in (3, 5, 9, 25):
            assert cmath.isclose(gauss_sum_brute(k, 0), k, abs_tol=1e-12)

    def test_accepts_any_modulus_at_least_two(self):
        value = gauss_sum_brute(4, 1)  # oracle use only
        assert cmath.isfinite(value)
        assert cmath.isclose(value, 2 - 2j, abs_tol=1e-12)
        with pytest.raises(ValueError):
            gauss_sum_brute(1, 1)

    def test_modulus_law_sample(self):
        for k in (3, 7, 25, 49):
            for a in range(1, k):
                if math.gcd(a, k) == 1:
                    assert abs(abs(gauss_sum_brute(k, a)) - math.sqrt(k)) < 1e-9

    def test_twist_law_random(self):
        rng = random.Random(99)
        for _ in range(300):
            k = rng.choice(ODD_PRIMES_TO_101)
            a = rng.randrange(1, k)
            l = rng.randrange(1, k)
            l_inv = pow(l, -1, k)
            lhs = gauss_sum_brute(k, a * l)
            rhs = legendre_chi(l_inv, k) * gauss_sum_brute(k, a)
            assert abs(lhs - rhs) < 1e-9


class TestGaussSumClosed:
    @pytest.mark.parametrize(
        "k,a,expected",
        [
            (5, 1, math.sqrt(5)),
            (3, 1, -1j * math.sqrt(3)),
            (5, 2, -math.sqrt(5)),
        ],
    )
    def test_values(self, k, a, expected):
        assert cmath.isclose(gauss_sum_closed(k, a), expected, abs_tol=1e-12)

    def test_matches_brute_force(self):
        for k in ODD_PRIMES_TO_101:
            for a in range(1, k):
                assert abs(gauss_sum_closed(k, a) - gauss_sum_brute(k, a)) < 1e-9

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            gauss_sum_closed(9, 1)  # prime power, not prime
        with pytest.raises(ValueError, match="^10 is not coprime to k=5$"):
            gauss_sum_closed(5, 10)


class TestRequireCoprime:
    @pytest.mark.parametrize("a,k", [(1, 5), (-3, 10), (7, 1024), (12, 35)])
    def test_accepts_coprime(self, a, k):
        require_coprime(a, k)

    @pytest.mark.parametrize("a,k", [(0, 5), (10, 5), (-4, 6), (6, 4), (21, 35)])
    def test_rejects_with_the_cli_message(self, a, k):
        with pytest.raises(ValueError, match=f"^{a} is not coprime to k={k}$"):
            require_coprime(a, k)


class TestModK:
    @pytest.mark.parametrize("k,p,e", [(5, 5, 1), (9, 3, 2), (25, 5, 2), (27, 3, 3), (343, 7, 3), (3**51, 3, 51),
                                       (1009**7, 1009, 7), (10**18 + 3, 10**18 + 3, 1), (2, 2, 1), (4, 2, 2),
                                       (8, 2, 3), (2**81, 2, 81)])
    def test_factorization(self, k, p, e):
        ring = ModK.from_modulus(k)
        assert (ring.k, ring.p, ring.e) == (k, p, e)

    @pytest.mark.parametrize("k", [6, 15, 45, 225, 3**10 * 5, (10**18 + 3) * 1009])
    def test_two_prime_factors_give_p_zero(self, k):
        ring = ModK.from_modulus(k)
        assert (ring.k, ring.p, ring.e) == (k, 0, 0)

    def test_squares_near_the_bound(self):
        # the largest squares below the bound, where a float root one off would show
        top = math.isqrt(_PROVEN_BELOW - 1)
        for root in range(top - 40, top + 1):
            ring = ModK.from_modulus(root * root)
            assert ((ring.p, ring.e) == (root, 2)) == is_prime(root)

    @pytest.mark.parametrize("k", [2, 4, 8, 2**81, 6, 15, 45, 225, 3**10 * 5, (10**18 + 3) * 1009])
    def test_odd_prime_power_required(self, k):
        with pytest.raises(ValueError, match="not a power of a single odd prime"):
            ModK.from_modulus(k).require_odd_prime_power()

    @pytest.mark.parametrize("k", [5, 9, 3**51, 1009**7, 10**18 + 3])
    def test_odd_prime_powers_pass(self, k):
        ModK.from_modulus(k).require_odd_prime_power()

    # 3**100 is a prime power beyond 3.3e24, where the primality test is not proven
    @pytest.mark.parametrize("k", [1, 0, -5, _PROVEN_BELOW, 3**100])
    def test_rejects_out_of_range(self, k):
        with pytest.raises(ValueError, match="must be >= 2 and below 3.3e"):
            ModK.from_modulus(k)

    def test_p_and_e_follow_k(self):
        with pytest.raises(TypeError):
            ModK(k=10, p=5, e=1)
        assert (ModK(16).p, ModK(16).e) == (2, 4)
        with pytest.raises(AttributeError):
            ModK.from_modulus(10).p = 5

    def test_reduce_and_valuation(self):
        ring = ModK.from_modulus(25)
        assert ring.valuation(10) == 1
        assert ring.valuation(7) == 0
        assert ring.valuation(0) == 2
        assert ring.valuation(50) == 2

    @pytest.mark.parametrize("k,n", [(6, 3), (6, 1), (6, 0), (6, 6), (6, 12), (15, 5), ((10**18 + 3) * 1009, 1009)])
    def test_valuation_needs_a_prime_power(self, k, n):
        with pytest.raises(ValueError, match="not a prime power"):
            ModK.from_modulus(k).valuation(n)
