import cmath
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtopo import invariants
from qtopo.errors import GuardExceeded
from qtopo.invariants import (
    SumRange,
    apply_move,
    check_kirby_invariance,
    make_move_script,
    multivariate_gauss_sum,
    tau_abelian,
    tau_dw,
    tau_su2_k3,
)
from qtopo.linkalg import FramedLinkMatrix, signature
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
            (random_symmetric(rng, 8), 3, Fraction(1, 4), SumRange.ONE_TWO),
            (FramedLinkMatrix.from_rows([[10**20 + 1]]), 40, Fraction(-1, 5), SumRange.ZERO_TO_KM1),
        ]
        default = [multivariate_gauss_sum(*case) for case in cases]
        monkeypatch.setattr(invariants, "_CHUNK", 7)
        assert [multivariate_gauss_sum(*case) for case in cases] == default

    def test_large_denominator_allocates_no_counts(self):
        den = 10**9 + 7
        rows = [[3, 10**20], [10**20, -7]]
        phase = Fraction(1, den)
        tracemalloc.start()
        try:
            value = multivariate_gauss_sum(FramedLinkMatrix.from_rows(rows), 3, phase, SumRange.ONE_TWO)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # a count per residue would take 8 GB
        assert rel_gap(value, oracle_gauss_sum(rows, 3, phase, SumRange.ONE_TWO)) <= 1e-9

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

    def test_script_generation_deterministic(self):
        link = FramedLinkMatrix.from_rows([[1, 2], [2, 0]])
        assert make_move_script(link, 10, seed=4) == make_move_script(link, 10, seed=4)
        assert make_move_script(link, 10, seed=4) != make_move_script(link, 10, seed=5)

    def test_scripts_stay_legal(self):
        rng = random.Random(9)
        for _ in range(10):
            link = random_symmetric(rng, rng.randint(1, 4))
            script = make_move_script(link, 12, seed=rng.randrange(10**6))
            cur = link
            for move in script:
                cur = apply_move(cur, move)  # raises on any illegal move

    def test_random_su2k3_scripts(self):
        rng = random.Random(111)
        for _ in range(10):
            link = random_symmetric(rng, rng.randint(1, 5))
            report = check_kirby_invariance(link, "su2k3", 10, seed=rng.randrange(10**6))
            assert report.passed, report

    def test_illegal_move_in_script_raises(self):
        with pytest.raises(ValueError):
            check_kirby_invariance(FramedLinkMatrix.from_rows([[2]]), "su2k3", [("blow_down", 0)])
