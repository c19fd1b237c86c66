import cmath
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtopo import invariants
from qtopo.errors import GuardExceeded
from qtopo.invariants import (
    MAX_RANDOM_MOVES,
    SumRange,
    apply_move,
    check_kirby_invariance,
    multivariate_gauss_sum,
    tau_abelian,
    tau_dw,
    tau_su2_k3,
)
from qtopo.linkalg import FramedLinkMatrix, blow_up, diagonalize_mod_k, handle_slide, signature
from qtopo.numtheory import ModK, gauss_sum_brute
from test_linkalg import random_symmetric


def oracle_gauss_sum(rows, k: int, phase: Fraction, offset_range: SumRange) -> complex:
    """Term-by-term sum over itertools.product, with exact integer exponents."""
    lo, hi = offset_range.bounds(k)
    m = len(rows)
    acc = 0.0 + 0.0j
    for n in itertools.product(range(lo, hi + 1), repeat=m):
        q = sum(rows[i][j] * n[i] * n[j] for i in range(m) for j in range(m))
        acc += cmath.exp(2j * math.pi * (phase.numerator * q % phase.denominator) / phase.denominator)
    return acc


def rel_gap(got: complex, want: complex) -> float:
    # a sum of unit phasors that cancels has no scale of its own, so gaps are
    # measured against max(|want|, 1)
    return abs(got - want) / max(abs(want), 1.0)


@st.composite
def gauss_sum_cases(draw):
    m = draw(st.integers(0, 5))
    offset_range = draw(st.sampled_from(list(SumRange)))
    den = draw(st.sampled_from([2, 3, 4, 5, 9, 13, 25]))
    num = draw(st.integers(-2 * den, 2 * den).filter(lambda v: math.gcd(v, den) == 1))
    k_max = int(2048 ** (1 / m) + 1e-9) + 1 if m else 40  # keeps the oracle under ~2100 terms
    k = draw(st.integers(2, max(2, k_max)))
    upper = draw(st.lists(st.integers(-(10**20), 10**20), min_size=m * (m + 1) // 2,
                          max_size=m * (m + 1) // 2))
    rows = [[0] * m for _ in range(m)]
    entries = iter(upper)
    for i in range(m):
        for j in range(i, m):
            rows[i][j] = rows[j][i] = next(entries)
    return rows, k, Fraction(num, den), offset_range


class TestMultivariateGaussSum:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(gauss_sum_cases())
    def test_matches_term_by_term_oracle(self, case):
        rows, k, phase, offset_range = case
        value = multivariate_gauss_sum(FramedLinkMatrix.from_rows(rows), k, phase, offset_range)
        assert rel_gap(value, oracle_gauss_sum(rows, k, phase, offset_range)) <= 1e-9

    def test_chunk_size_does_not_change_the_value(self, monkeypatch):
        # every denominator here is <= 7, so both chunk sizes count residues,
        # and integer counts do not depend on how the box was cut
        rng = random.Random(41)
        cases = [
            (random_symmetric(rng, 5), 5, Fraction(-1, 5), SumRange.ZERO_TO_KM1),
            (random_symmetric(rng, 4), 7, Fraction(1, 7), SumRange.ONE_TO_KM1),
            (random_symmetric(rng, 8), 3, Fraction(1, 4), SumRange.ONE_TO_KM1),
            (FramedLinkMatrix.from_rows([[10**20 + 1]]), 40, Fraction(-1, 5), SumRange.ZERO_TO_KM1),
        ]
        default = [multivariate_gauss_sum(*case) for case in cases]
        monkeypatch.setattr(invariants, "_CHUNK", 7)
        assert [multivariate_gauss_sum(*case) for case in cases] == default

    def test_su2k3_box_is_the_z2_group_sum(self):
        # i**(n^T J n) depends only on n mod 2, and n -> n mod 2 maps {1, 2}^m onto (Z/2)^m one to one,
        # so both boxes give the same residue counts mod 4 and the same value, bit for bit
        rng = random.Random(22)
        large = 0
        for _ in range(100):
            link = random_symmetric(rng, rng.randint(0, 12), *rng.choice(((-9, 9), (-(2**40), 2**40))))
            large += any(abs(x) >= 2**31 for row in link.J for x in row)
            assert (multivariate_gauss_sum(link, 3, Fraction(1, 4), SumRange.ONE_TO_KM1)
                    == multivariate_gauss_sum(link, 2, Fraction(1, 4), SumRange.ZERO_TO_KM1))
        assert large >= 20

    def test_large_denominator_allocates_no_counts(self):
        den = 10**9 + 7
        rows = [[3, 10**20], [10**20, -7]]
        phase = Fraction(1, den)
        tracemalloc.start()
        try:
            value = multivariate_gauss_sum(FramedLinkMatrix.from_rows(rows), 3, phase, SumRange.ONE_TO_KM1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # a count per residue would take 8 GB
        assert rel_gap(value, oracle_gauss_sum(rows, 3, phase, SumRange.ONE_TO_KM1)) <= 1e-9

    def test_oversized_half_matches_scalar_sum(self):
        # one variable over more residues than fit in a chunk
        k = 4000037
        assert k > invariants._CHUNK
        value = multivariate_gauss_sum(FramedLinkMatrix.from_rows([[3]]), k, Fraction(-1, k))
        assert rel_gap(value, gauss_sum_brute(k, 3)) <= 1e-9

    def test_single_variable_matches_scalar_sum(self):
        link = FramedLinkMatrix.from_rows([[1]])
        value = multivariate_gauss_sum(link, 5, Fraction(-1, 5))
        assert abs(value - gauss_sum_brute(5, 1)) < 1e-12
        assert abs(value - math.sqrt(5)) < 1e-9

    def test_zero_matrix_counts_terms(self):
        for m, k in ((2, 5), (3, 3), (1, 7)):
            link = FramedLinkMatrix.from_rows([[0] * m for _ in range(m)])
            value = multivariate_gauss_sum(link, k, Fraction(-1, k))
            assert abs(value - k**m) < 1e-9
        # an integer phase scale (denominator 1) makes every term 1, whatever the matrix
        link = FramedLinkMatrix.from_rows([[2, 1, 0], [1, -3, 1], [0, 1, 4]])
        assert multivariate_gauss_sum(link, 5, Fraction(3)) == 5**3

    def test_diagonal_form_separates(self):
        link = FramedLinkMatrix.from_rows([[1, 0], [0, 2]])
        value = multivariate_gauss_sum(link, 5, Fraction(-1, 5))
        expected = gauss_sum_brute(5, 1) * gauss_sum_brute(5, 2)
        assert abs(value - expected) < 1e-9
        assert abs(value - (-5)) < 1e-9

    def test_empty_link(self):
        link = FramedLinkMatrix.from_rows([])
        assert multivariate_gauss_sum(link, 5, Fraction(-1, 5)) == 1

    def test_guard(self):
        link = FramedLinkMatrix.from_rows([[0, 0], [0, 0]])
        with pytest.raises(GuardExceeded):
            multivariate_gauss_sum(link, 101, Fraction(-1, 101), guard=100)
        # a modulus too large for exact int64 phases is refused before any term is summed
        k = 2**32 + 15
        with pytest.raises(GuardExceeded):
            multivariate_gauss_sum(FramedLinkMatrix.from_rows([[1]]), k, Fraction(1, k), guard=10**10)

    def test_exact_fallback_matches_vectorized(self):
        # huge entries must give the value of the same matrix reduced mod the
        # denominator
        big = 3 * 10**9
        link_big = FramedLinkMatrix.from_rows([[big + 2]])
        link_small = FramedLinkMatrix.from_rows([[(big + 2) % 5]])
        v_big = multivariate_gauss_sum(link_big, 5, Fraction(-1, 5))
        v_small = multivariate_gauss_sum(link_small, 5, Fraction(-1, 5))
        assert abs(v_big - v_small) < 1e-9


class TestTauAbelian:
    def test_unknot_plus_one(self):
        result = tau_abelian(FramedLinkMatrix.from_rows([[1]]), ModK.from_modulus(5))
        assert abs(result.value - math.sqrt(5)) < 1e-9
        assert abs(result.normalized - 1) < 1e-9

    def test_methods_agree_on_hopf_matrix(self):
        link = FramedLinkMatrix.from_rows([[0, 1], [1, 0]])
        ring = ModK.from_modulus(5)
        brute = tau_abelian(link, ring, method="brute")
        fact = tau_abelian(link, ring, method="factorized")
        assert brute.method == "brute" and fact.method == "factorized"
        assert abs(brute.value - fact.value) < 1e-6 * abs(brute.value)

    def test_empty_link_is_one(self):
        result = tau_abelian(FramedLinkMatrix.from_rows([]), ModK.from_modulus(5))
        assert result.value == 1
        assert result.m == 0

    def test_warns_outside_invariance_domain(self):
        with pytest.warns(UserWarning, match="not 1 mod 4"):
            tau_abelian(FramedLinkMatrix.from_rows([[1]]), ModK.from_modulus(7))

    def test_methods_agree_random(self):
        rng = random.Random(300)
        for k in (5, 9, 13):
            ring = ModK.from_modulus(k)
            for _ in range(10):
                link = random_symmetric(rng, rng.randint(0, 3))
                brute = tau_abelian(link, ring, method="brute").value
                fact = tau_abelian(link, ring, method="factorized").value
                assert abs(brute - fact) < 1e-6 * abs(brute)

    @pytest.mark.parametrize("method", ["brute", "factorized"])
    @pytest.mark.parametrize("k", [2, 4, 6, 15])
    def test_modulus_not_an_odd_prime_power_rejected(self, method, k):
        with pytest.raises(ValueError, match="not a power of a single odd prime"):
            tau_abelian(FramedLinkMatrix.from_rows([[1]]), ModK.from_modulus(k), method=method)

    def test_json_fields(self):
        payload = tau_abelian(FramedLinkMatrix.from_rows([[1]]), ModK.from_modulus(5)).to_json_dict()
        assert set(payload) == {"re", "im", "method", "k", "m", "normalized_re", "normalized_im"}

    @pytest.mark.filterwarnings("ignore:k=.* is not 1 mod 4")
    def test_brute_value_is_never_below_one(self):
        # |value| = prod p**((e + v_i)/2) over the diagonal mod k, so the Abelian Kirby law's phases and check's
        # factorized_vs_brute gap never divide by 0
        rng = random.Random(32)
        for k in (3, 5, 7, 9, 11, 13, 25, 27, 49, 81, 125):
            ring = ModK.from_modulus(k)
            m_max = max(m for m in range(12) if k**m <= 2 * 10**5)
            for _ in range(8):
                m = rng.randint(0, m_max)
                rows = [[0] * m for _ in range(m)]
                for i in range(m):
                    for j in range(i, m):  # units, multiples of p and multiples of k
                        rows[i][j] = rows[j][i] = rng.choice((1, ring.p, k)) * rng.randint(-3, 3)
                link = FramedLinkMatrix.from_rows(rows)
                value = tau_abelian(link, ring, method="brute").value
                half_powers = sum(ring.e + ring.valuation(entry) for entry in diagonalize_mod_k(link, ring).d)
                assert abs(value) >= 1
                assert math.isclose(abs(value) ** 2, ring.p**half_powers, rel_tol=1e-9)


class TestFloatRange:
    @pytest.mark.parametrize("base,half_powers,message", [
        (2, 2047, None),
        (2, 2048, "|value| = 2**(2048/2) ~ 1e308 is beyond the float range"),
        (1009, 205, None),
        (1009, 206, "|value| = 1009**(206/2) ~ 1e309 is beyond the float range"),
    ])
    def test_boundary(self, base, half_powers, message):
        # the largest float is just below 2**1024, and 1009**(205/2) ~ 7.92e307 is below it
        if message is None:
            invariants._require_float_range(base, half_powers)
        else:
            with pytest.raises(GuardExceeded) as info:
                invariants._require_float_range(base, half_powers)
            assert str(info.value) == message


class TestDwFloatRange:
    # the full range at an odd prime power returns conj(G)/k, 2e half-powers below the group sum G, which may
    # itself pass the largest float
    @pytest.mark.parametrize("m,message", [
        (206, None),
        (207, None),
        (208, "|value| = 1009**(206/2) ~ 1e309 is beyond the float range"),
    ])
    def test_boundary_is_the_returned_value(self, m, message):
        link = FramedLinkMatrix.from_rows([[int(i == j) for j in range(m)] for i in range(m)])
        if message is None:
            value = tau_dw(link, 1009, "full").value
            assert math.isclose(abs(value), 1009 ** ((m - 2) / 2), rel_tol=1e-9)
        else:
            with pytest.raises(GuardExceeded) as info:
                tau_dw(link, 1009, "full")
            assert str(info.value) == message

    def test_same_bits_as_dividing_the_group_sum(self):
        # the product runs scaled by a power of 2, which changes no bit, signed zeros included
        rng = random.Random(41)
        for _ in range(150):
            m, k = rng.randint(0, 6), rng.choice([3, 5, 7, 9, 25, 27, 49, 125, 1009])
            link = random_symmetric(rng, m) if rng.random() < 0.8 else FramedLinkMatrix.from_rows([[0] * m] * m)
            g = invariants._factorized_sum(link, ModK.from_modulus(k), invariants.DEFAULT_GUARD)
            want = complex(g.real, 0.0 - g.imag) / k
            got = tau_dw(link, k, "full").value
            assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex()), (link.J, k)


class TestTauSu2K3:
    @pytest.mark.parametrize(
        "rows,expected",
        [
            ([[1]], 1.0),          # +1-framed unknot: the 3-sphere
            ([[0]], math.sqrt(2)), # 0-framed unknot: S1 x S2
            ([[-1]], 1.0),         # -1-framed unknot: the 3-sphere again
        ],
    )
    def test_surgery_presentations(self, rows, expected):
        value = tau_su2_k3(FramedLinkMatrix.from_rows(rows)).value
        assert abs(value - expected) < 1e-9

    def test_depends_only_on_mod_four_and_signature(self):
        rng = random.Random(23)
        checked = 0
        while checked < 30:
            m = rng.randint(1, 4)
            link = random_symmetric(rng, m)
            i = rng.randrange(m)
            j = rng.randrange(m)
            rows = [list(r) for r in link.J]
            rows[i][j] += 4
            if i != j:
                rows[j][i] += 4
            perturbed = FramedLinkMatrix.from_rows(rows)
            if signature(perturbed) != signature(link):
                continue
            assert abs(tau_su2_k3(link).value - tau_su2_k3(perturbed).value) < 1e-9
            checked += 1

    def test_slide_invariance(self):
        rng = random.Random(29)
        for _ in range(20):
            m = rng.randint(2, 5)
            link = random_symmetric(rng, m)
            slid = apply_move(link, ("slide", *rng.sample(range(m), 2), rng.choice((1, -1))))
            assert abs(tau_su2_k3(link).value - tau_su2_k3(slid).value) < 1e-9


def z2_counts_sum(rows) -> tuple[int, int]:
    """(c0 - c2, c1 - c3), with c_r the x in {0,1}^m where x^T J x = r (mod 4), counted term by term."""
    m = len(rows)
    x = (np.arange(2**m)[:, None] >> np.arange(m)) & 1
    q = ((x @ np.array([[entry % 4 for entry in row] for row in rows], dtype=np.int64).reshape(m, m)) * x).sum(axis=1)
    c = np.bincount(q % 4, minlength=4)
    return int(c[0] - c[2]), int(c[1] - c[3])


def gaussian_product(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def direct_sum(*links: FramedLinkMatrix) -> FramedLinkMatrix:
    sizes = [link.m for link in links]
    rows = []
    for index, link in enumerate(links):
        before, after = sum(sizes[:index]), sum(sizes[index + 1:])
        rows += [[0] * before + list(row) + [0] * after for row in link.J]
    return FramedLinkMatrix.from_rows(rows)


class TestZ2GaussSum:
    """The exact (Z/2)^m sum against counted residues up to m = 12, and against its laws at m = 60."""

    @staticmethod
    def _cases():
        rng = random.Random(24)
        for m in range(13):
            yield [[0] * m for _ in range(m)]
            for _ in range(8):
                yield [list(row) for row in random_symmetric(rng, m, -3, 3).J]
                yield [list(row) for row in random_symmetric(rng, m, -(2**70), 2**70).J]
                rows = [list(row) for row in random_symmetric(rng, m, -3, 3).J]
                for i in range(m):
                    rows[i][i] = 2 * rng.randint(-2, 2)
                yield rows

    def test_matches_counted_residues(self):
        cases = list(self._cases())
        assert sum(any(abs(x) >= 2**63 for row in rows for x in row) for rows in cases) >= 90
        assert sum(invariants._z2_gauss_sum(rows) != (0, 0) for rows in cases) >= 150
        for rows in cases:
            assert invariants._z2_gauss_sum(rows) == z2_counts_sum(rows), rows

    def test_tau_su2_k3_matches_the_brute_sum(self):
        for rows in self._cases():
            link = FramedLinkMatrix.from_rows(rows)
            brute = multivariate_gauss_sum(link, 2, Fraction(1, 4))
            want = 2 ** (-link.m / 2) * cmath.exp(-0.25j * math.pi * signature(link)) * brute
            result = tau_su2_k3(link)
            assert rel_gap(result.value, want) <= 1e-12, rows  # |value| is 0 or at least 1
            assert result.method == "exact"

    @staticmethod
    def _wide(rng: random.Random, m: int = 60) -> FramedLinkMatrix:
        rows = [list(row) for row in random_symmetric(rng, m, -3, 3).J]
        if rng.random() < 0.5:  # all-even diagonals take the paired eliminations
            for i in range(m):
                rows[i][i] = 2 * rng.randint(-2, 2)
        return FramedLinkMatrix.from_rows(rows)

    def test_handle_slides_keep_the_sum(self):
        rng = random.Random(60)
        nonzero = 0
        for _ in range(4):
            link = self._wide(rng)
            start = invariants._z2_gauss_sum(link.J)
            nonzero += start != (0, 0)
            for _ in range(50):
                link = handle_slide(link, *rng.sample(range(link.m), 2), rng.choice((1, -1)))
                assert invariants._z2_gauss_sum(link.J) == start
        assert nonzero >= 2

    def test_direct_sums_multiply(self):
        rng = random.Random(61)
        nonzero = 0
        for _ in range(10):
            first, second = self._wide(rng, 30), self._wide(rng, 30)
            product = gaussian_product(invariants._z2_gauss_sum(first.J), invariants._z2_gauss_sum(second.J))
            nonzero += product != (0, 0)
            assert invariants._z2_gauss_sum(direct_sum(first, second).J) == product
        assert nonzero >= 3

    @pytest.mark.parametrize("sign", [1, -1])
    def test_a_blow_up_multiplies_by_one_plus_sign_i(self, sign):
        rng = random.Random(62)
        nonzero = 0
        for _ in range(10):
            link = self._wide(rng)
            want = gaussian_product(invariants._z2_gauss_sum(link.J), (1, sign))
            nonzero += want != (0, 0)
            unknot = FramedLinkMatrix.from_rows([[sign]])
            assert invariants._z2_gauss_sum(blow_up(link, sign).J) == want
            assert invariants._z2_gauss_sum(direct_sum(unknot, link).J) == want
        assert nonzero >= 3

    def test_value_in_the_float_range_survives_an_integer_beyond_it(self):
        # S = 2**1024 has no float, but the value 2**512 has
        link = FramedLinkMatrix.from_rows([[0] * 1024 for _ in range(1024)])
        assert invariants._z2_gauss_sum(link.J) == (2**1024, 0)
        assert abs(tau_su2_k3(link).value) == 2.0**512

    def test_the_largest_value_in_the_float_range(self):
        # |value| = 2**(2047/2), with S = 2**2047 and an odd m
        value = tau_su2_k3(FramedLinkMatrix.from_rows([[0] * 2047 for _ in range(2047)])).value
        assert math.isclose(value.real, 2**1023.5, rel_tol=1e-15)
        assert value.imag == 0.0


@pytest.mark.parametrize("call,message", [
    (lambda: multivariate_gauss_sum(FramedLinkMatrix.from_rows([[1]]), 1, Fraction(1, 1)), "modulus 1 must be >= 2"),
    (lambda: tau_abelian(FramedLinkMatrix.from_rows([[1]]), ModK.from_modulus(5), method="closed"),
     "unknown method 'closed'"),
    (lambda: apply_move(FramedLinkMatrix.from_rows([[1]]), ("twist", 0)), "unknown move ('twist', 0)"),
    (lambda: check_kirby_invariance(FramedLinkMatrix.from_rows([[1]]), "jones", 3), "unknown invariant 'jones'"),
    (lambda: check_kirby_invariance(FramedLinkMatrix.from_rows([[1]]), "abelian", 3),
     "abelian invariance check requires a ring"),
], ids=["modulus-below-2", "unknown-method", "unknown-move", "unknown-invariant", "ring-required"])
def test_rejected_arguments(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


class TestTauDw:
    def test_full_range_unknot(self):
        result = tau_dw(FramedLinkMatrix.from_rows([[1]]), 5, "full")
        assert abs(result.value - math.sqrt(5) / 5) < 1e-9

    def test_paper_range_unknot(self):
        result = tau_dw(FramedLinkMatrix.from_rows([[1]]), 5, "paper")
        assert abs(result.value - (math.sqrt(5) - 1) / 5) < 1e-9

    def test_zero_matrix(self):
        result = tau_dw(FramedLinkMatrix.from_rows([[0]]), 3, "full")
        assert abs(result.value - 1) < 1e-12

    def test_paper_vs_full_differ_by_boundary_terms(self):
        link = FramedLinkMatrix.from_rows([[1]])
        full = tau_dw(link, 5, "full").value
        paper = tau_dw(link, 5, "paper").value
        assert abs((full - paper) - Fraction(1, 5)) < 1e-12  # the n=0 term / k

    def test_default_is_paper_range(self):
        link = FramedLinkMatrix.from_rows([[1]])
        assert tau_dw(link, 5).value == tau_dw(link, 5, "paper").value

    def test_rejects_unknown_range(self):
        with pytest.raises(ValueError):
            tau_dw(FramedLinkMatrix.from_rows([[1]]), 5, "half")

    def test_full_range_matches_the_brute_oracle(self):
        # criterion 03: the factorized full sum against the brute box sum, on entries divisible by p too
        rng = random.Random(31)
        for _ in range(200):
            k = rng.choice((3, 5, 7, 9, 13, 25, 27, 125))
            m = rng.choice([m for m in range(5) if k**m <= 2 * 10**6])
            p = ModK.from_modulus(k).p
            rows = [[0] * m for _ in range(m)]
            for i in range(m):
                for j in range(i, m):
                    rows[i][j] = rows[j][i] = rng.choice((rng.randint(-30, 30), p * rng.randint(-9, 9),
                                                          k * rng.randint(-3, 3), rng.randint(-(10**20), 10**20)))
            link = FramedLinkMatrix.from_rows(rows)
            got = tau_dw(link, k, "full")
            assert got.method == "factorized"
            want = multivariate_gauss_sum(link, k, Fraction(1, k)) / k
            assert rel_gap(got.value, want) < 1e-9, (rows, k)

    @pytest.mark.parametrize("k,range_convention,method", [
        *((k, "full", "factorized") for k in (3, 5, 9, 13, 125)),
        *((k, "paper", "brute") for k in (3, 5, 9, 13, 125)),
        *((k, rc, "brute") for k in (2, 4, 6, 15, 45) for rc in ("full", "paper")),
    ])
    def test_method_label(self, k, range_convention, method):
        assert tau_dw(FramedLinkMatrix.from_rows([[1, 2], [2, 0]]), k, range_convention).method == method

    @pytest.mark.parametrize("k", [1, 10**30, 10**309], ids=["1", "1e30", "1e309"])
    def test_rejects_a_modulus_out_of_range(self, k):
        # 10**309 has no float, so the normalization core / k would overflow
        with pytest.raises(ValueError, match="must be >= 2 and below"):
            tau_dw(FramedLinkMatrix.from_rows([]), k)


class TestKirbyChecks:
    def test_su2k3_documented_script(self):
        report = check_kirby_invariance(
            FramedLinkMatrix.from_rows([[0]]), "su2k3", [("blow_up", 1), ("slide", 0, 1, 1)]
        )
        assert abs(report.before - math.sqrt(2)) < 1e-9
        assert abs(report.after - math.sqrt(2)) < 1e-9
        assert report.passed

    def test_abelian_blow_up_scales_modulus(self):
        ring = ModK.from_modulus(5)
        report = check_kirby_invariance(
            FramedLinkMatrix.from_rows([[1]]), "abelian", [("blow_up", 1)], ring=ring
        )
        assert report.passed
        assert abs(abs(report.after) / abs(report.before) - math.sqrt(5)) < 1e-9

    @pytest.mark.parametrize("invariant,k", [("su2k3", None), ("abelian", 5), ("dw", 5)])
    def test_only_abelian_has_an_oracle_check(self, invariant, k):
        # check_kirby_invariance never adds the oracle check itself, so a caller that appends one gets one copy
        link, ring = FramedLinkMatrix.from_rows([[1, 2], [2, 0]]), invariants.require_ring(invariant, k)
        report = check_kirby_invariance(link, invariant, 3, seed=1, ring=ring)
        checked = invariants.with_oracle_check(report, link, ring, invariants.DEFAULT_GUARD)
        if invariant != "abelian":
            assert checked is report
        else:
            assert checked.checks[:-1] == report.checks
            assert (checked.checks[-1].name, checked.checks[-1].passed) == ("factorized_vs_brute", True)
            fact = tau_abelian(link, ring, method="factorized").value
            assert checked.checks[-1].deviation == abs(report.before - fact) / abs(report.before)

    def test_empty_script_trivially_passes(self):
        report = check_kirby_invariance(FramedLinkMatrix.from_rows([[2]]), "su2k3", [])
        assert report.passed
        assert report.before == report.after

    def test_dw_slides_asserted_blow_ups_recorded(self):
        ring = ModK.from_modulus(5)
        script = [("slide", 0, 1, 1), ("blow_up", -1), ("slide", 1, 0, -1)]
        report = check_kirby_invariance(
            FramedLinkMatrix.from_rows([[1, 2], [2, 0]]), "dw", script, ring=ring,
            range_convention="full",
        )
        assert report.passed
        assert any("recorded" in note for note in report.notes)

    def test_dw_paper_range_not_asserted(self):
        ring = ModK.from_modulus(5)
        report = check_kirby_invariance(
            FramedLinkMatrix.from_rows([[1, 2], [2, 0]]), "dw", [("slide", 0, 1, 1)],
            ring=ring, range_convention="paper",
        )
        assert all(not c.asserted for c in report.checks)

    @pytest.mark.parametrize("invariant,k,word,message", [
        ("abelian", 5, "paper", "^abelian sums the whole group; the paper range is for dw only$"),
        ("su2k3", None, "paper", "^su2k3 sums the whole group; the paper range is for dw only$"),
        ("abelian", 5, "bogus", "'bogus' is not a valid SumRange"),
        ("su2k3", None, "bogus", "'bogus' is not a valid SumRange"),
        ("dw", 5, "bogus", "'bogus' is not a valid SumRange"),
    ])
    def test_range_the_invariant_cannot_honour_is_rejected(self, invariant, k, word, message):
        ring = None if k is None else ModK.from_modulus(k)
        with pytest.raises(ValueError, match=message):
            check_kirby_invariance(FramedLinkMatrix.from_rows([[1]]), invariant, [], ring=ring, range_convention=word)

    def test_script_generation_deterministic(self):
        link = FramedLinkMatrix.from_rows([[1, 2], [2, 0]])
        ring = ModK.from_modulus(5)

        def script(seed):
            return check_kirby_invariance(link, "dw", 10, seed=seed, ring=ring).script

        assert script(4) == script(4)
        assert script(4) != script(5)

    def test_scripts_stay_legal(self):
        rng = random.Random(9)
        for _ in range(10):
            link = random_symmetric(rng, rng.randint(1, 4))
            script = check_kirby_invariance(link, "su2k3", 12, seed=rng.randrange(10**6)).script
            cur = link
            for move in script:
                cur = apply_move(cur, move)  # raises on any illegal move

    def test_each_random_move_is_applied_once(self, monkeypatch):
        calls = []

        def counted(link, move):
            calls.append(move)
            return apply_move(link, move)

        monkeypatch.setattr(invariants, "apply_move", counted)
        report = check_kirby_invariance(FramedLinkMatrix.from_rows([[0, 1], [1, 0]]), "dw", 10, seed=1,
                                        ring=ModK.from_modulus(5))
        assert len(report.script) == 10
        assert calls == list(report.script)

    # width**m_cap == min(guard, 10**6) exactly, where a float log_width rounds one short. The box has width k on
    # the full range and k-1 on the paper range; su2k3 sums no terms, so it draws its script at guard 0 and its
    # blow-ups stop at 16
    @pytest.mark.parametrize("k,guard,m_cap,range_convention", [
        (10, 10**6, 6, "full"), (100, 10**8, 3, "full"), (3, 243, 5, "full"), (10, 1000, 3, "full"),
        (2, 2**19, 19, "full"), (11, 10**8, 6, "paper"), (None, 0, 16, None),
    ], ids=["10-1000000-6", "100-100000000-3", "3-243-5", "10-1000-3", "2-524288-19", "paper-11-100000000-6",
            "su2k3-0-16"])
    def test_random_script_size_cap_is_exact_at_powers(self, k, guard, m_cap, range_convention):
        hopf = FramedLinkMatrix.from_rows([[0, 1], [1, 0]])
        if k is None:
            report = check_kirby_invariance(hopf, "su2k3", 200, guard=guard)
            steps = ({"blow_up": 1, "blow_down": -1}.get(move[0], 0) for move in report.script)
            assert max(itertools.accumulate(steps, initial=hopf.m)) == m_cap
            return
        width = SumRange(range_convention).width(k)
        # the guard pre-count names the largest m a 200-move script could reach from m = 2
        with pytest.raises(GuardExceeded, match=rf"^201 evaluations \* {width}\*\*{m_cap} = "):
            check_kirby_invariance(hopf, "dw", 200, ring=ModK.from_modulus(k), range_convention=range_convention,
                                   guard=guard)

    def test_random_script_may_regrow_to_the_input_m(self):
        # 101**3 > 10**6 caps the box at m = 2, below the input's m = 3; a blow-down may still be undone
        unknots = FramedLinkMatrix.from_rows([[1, 0, 0], [0, -1, 0], [0, 0, 1]])
        report = check_kirby_invariance(unknots, "abelian", 4, seed=0, ring=ModK.from_modulus(101))
        assert report.script[:2] == (("blow_down", 1), ("blow_up", -1))

    @pytest.mark.parametrize("invariant,k,range_convention", [("su2k3", None, "full"), ("dw", 2, "paper")])
    def test_random_script_length_is_bounded(self, invariant, k, range_convention):
        # neither sums more than one term per evaluation, so no guard bounds the script
        hopf = FramedLinkMatrix.from_rows([[0, 1], [1, 0]])
        ring = None if k is None else ModK.from_modulus(k)
        with pytest.raises(ValueError, match=rf"^a random script has at most {MAX_RANDOM_MOVES} moves, got "):
            check_kirby_invariance(hopf, invariant, MAX_RANDOM_MOVES + 1, ring=ring, range_convention=range_convention)
        report = check_kirby_invariance(hopf, invariant, MAX_RANDOM_MOVES, ring=ring, range_convention=range_convention)
        assert len(report.script) == MAX_RANDOM_MOVES

    def test_random_su2k3_scripts(self):
        rng = random.Random(111)
        for _ in range(10):
            link = random_symmetric(rng, rng.randint(1, 5))
            report = check_kirby_invariance(link, "su2k3", 10, seed=rng.randrange(10**6))
            assert report.passed, report

    def test_illegal_move_in_script_raises(self):
        with pytest.raises(ValueError):
            check_kirby_invariance(FramedLinkMatrix.from_rows([[2]]), "su2k3", [("blow_down", 0)])


class TestDeclaredCost:
    """Each path charges the terms it sums: a guard equal to the declared cost passes, and one below it raises."""

    @pytest.fixture
    def charged(self, monkeypatch):
        """The (terms, formula) each charge call declares, in order."""
        declared = []
        real = invariants.charge

        def spy(terms, formula, guard):
            declared.append((terms, formula))
            real(terms, formula, guard)

        monkeypatch.setattr(invariants, "charge", spy)
        return declared

    @pytest.fixture
    def binned(self, monkeypatch):
        """The residues the brute sum counts: one per term, at every denominator below its chunk size."""
        summed = []
        real = np.bincount

        def spy(residues, *args, **kwargs):
            summed.append(len(residues))
            return real(residues, *args, **kwargs)

        monkeypatch.setattr(np, "bincount", spy)
        return summed

    def test_brute_sum(self, monkeypatch, charged, binned):
        monkeypatch.setattr(invariants, "_CHUNK", 16)  # many chunks and blocks, each counted once
        rng = random.Random(26)
        for _ in range(30):
            m, k, offset_range = rng.randint(1, 4), rng.randint(2, 7), rng.choice(list(SumRange))
            link, width = random_symmetric(rng, m), offset_range.width(k)
            charged.clear(), binned.clear()
            multivariate_gauss_sum(link, k, Fraction(rng.choice((1, -1)), k), offset_range)
            assert charged == [(width**m, f"{width}**{m}")] and sum(binned) == width**m
            multivariate_gauss_sum(link, k, Fraction(1, k), offset_range, guard=width**m)
            message = rf"^{width}\*\*{m} = {width**m} terms exceeds guard {width**m - 1}$"
            with pytest.raises(GuardExceeded, match=message):
                multivariate_gauss_sum(link, k, Fraction(1, k), offset_range, guard=width**m - 1)

    def test_factorized_abelian(self, monkeypatch, charged):
        scalar_terms = []

        def counted(k, a):
            scalar_terms.append(k)
            return gauss_sum_brute(k, a)

        monkeypatch.setattr(invariants, "gauss_sum_brute", counted)
        rng = random.Random(27)
        for _ in range(20):
            m, ring = rng.randint(0, 5), ModK.from_modulus(rng.choice((5, 13, 9, 25, 81)))
            link = random_symmetric(rng, m)
            charged.clear(), scalar_terms.clear()
            tau_abelian(link, ring)
            assert charged == [(m * ring.k, f"{m}*{ring.k}")] and sum(scalar_terms) == m * ring.k
            tau_abelian(link, ring, guard=m * ring.k)
            message = rf"^{m}\*{ring.k} = {m * ring.k} terms exceeds guard {m * ring.k - 1}$"
            with pytest.raises(GuardExceeded, match=message):
                tau_abelian(link, ring, guard=m * ring.k - 1)

    def test_factorized_dw(self, charged, binned):
        rng = random.Random(31)
        for _ in range(20):
            m, k = rng.randint(0, 5), rng.choice((3, 5, 7, 9, 13, 25, 27, 125))
            link = random_symmetric(rng, m)
            charged.clear(), binned.clear()
            tau_dw(link, k, "full")
            assert charged == [(m * k, f"{m}*{k}")] and binned == []
            tau_dw(link, k, "full", guard=m * k)
            message = rf"^{m}\*{k} = {m * k} terms exceeds guard {m * k - 1}$"
            with pytest.raises(GuardExceeded, match=message):
                tau_dw(link, k, "full", guard=m * k - 1)

    def test_kirby_pre_count(self, charged, binned):
        rng = random.Random(28)
        for _ in range(30):
            link = random_symmetric(rng, rng.randint(1, 3))
            invariant = rng.choice(("abelian", "dw"))
            ring = ModK.from_modulus(rng.choice((5, 13)) if invariant == "abelian" else rng.randint(2, 7))
            range_convention = rng.choice(("full", "paper")) if invariant == "dw" else "full"
            moves, seed = rng.randint(0, 6), rng.randrange(10**6)
            charged.clear(), binned.clear()
            report = check_kirby_invariance(link, invariant, moves, seed=seed, ring=ring,
                                            range_convention=range_convention)
            # the pre-count bounds the script's evaluations: dw full at an odd prime power charges m*k and bins
            # nothing, every other evaluation charges its brute box and bins exactly that many residues
            (declared, _), width, k = charged[0], SumRange(range_convention).width(ring.k), ring.k
            steps = ({"blow_up": 1, "blow_down": -1}.get(move[0], 0) for move in report.script)
            ms = list(itertools.accumulate(steps, initial=link.m))
            if invariant == "dw" and range_convention == "full" and ring.p > 2:
                assert charged[1:] == [(m * k, f"{m}*{k}") for m in ms] and binned == []
            else:
                assert charged[1:] == [(width**m, f"{width}**{m}") for m in ms]
                assert sum(binned) == sum(width**m for m in ms)
            assert sum(terms for terms, _ in charged[1:]) <= declared
            check_kirby_invariance(link, invariant, moves, seed=seed, ring=ring, range_convention=range_convention,
                                   guard=declared)
            message = rf"^{moves + 1} evaluations \* {width}\*\*\d+ = {declared} terms exceeds guard {declared - 1}$"
            with pytest.raises(GuardExceeded, match=message):
                check_kirby_invariance(link, invariant, moves, seed=seed, ring=ring,
                                       range_convention=range_convention, guard=declared - 1)

    def test_su2k3_declares_nothing(self, charged):
        rng = random.Random(29)
        for _ in range(10):
            link = random_symmetric(rng, rng.randint(0, 6))
            assert check_kirby_invariance(link, "su2k3", 10, seed=rng.randrange(10**6), guard=0).passed
        assert charged == []
