import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from qtopo import linkalg
from qtopo.errors import SchemaError
from qtopo.invariants import SumRange, multivariate_gauss_sum
from qtopo.linkalg import (
    FramedLinkMatrix,
    blow_down,
    blow_up,
    diagonalize_mod_k,
    handle_slide,
    signature,
)
from qtopo.numtheory import ModK, gauss_sum_brute


def random_symmetric(rng, m, lo=-5, hi=5):
    rows = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            rows[i][j] = rows[j][i] = rng.randint(lo, hi)
    return FramedLinkMatrix.from_rows(rows)


def det_int(rows) -> int:
    """Exact integer determinant by row-pivoted Bareiss elimination, independent of qtopo."""
    a = [list(row) for row in rows]
    n = len(a)
    sign, prev = 1, 1
    for t in range(n - 1):
        if a[t][t] == 0:
            pivot = next((r for r in range(t + 1, n) if a[r][t] != 0), None)
            if pivot is None:
                return 0
            a[t], a[pivot] = a[pivot], a[t]
            sign = -sign
        for r in range(t + 1, n):
            for c in range(t + 1, n):
                a[r][c] = (a[r][c] * a[t][t] - a[r][t] * a[t][c]) // prev
        prev = a[t][t]
    return sign * a[n - 1][n - 1] if n else 1


def slid_diagonal(seed, m):
    """A matrix of known signature: a diagonal D congruent by a chain of handle slides.

    D lists nonzero entries up to 10**18 first, then [[0,1],[1,0]] blocks, then
    zeros. Slides go only over the nonzero-entry components, so once those are
    eliminated the hyperbolic blocks leave a zero-diagonal block that forces
    the slide path, and the zeros leave a vanishing block. Each hyperbolic
    block adds nothing to the inertia.
    """
    rng = random.Random(seed)
    hyperbolic = m // 8
    zeros = m // 8
    units = m - 2 * hyperbolic - zeros
    diag = [rng.choice((1, -1)) * rng.choice((rng.randint(1, 7), rng.randint(10**17, 10**18)))
            for _ in range(units)]
    rows = [[0] * m for _ in range(m)]
    for i, entry in enumerate(diag):
        rows[i][i] = entry
    for b in range(units, units + 2 * hyperbolic, 2):
        rows[b][b + 1] = rows[b + 1][b] = 1
    link = FramedLinkMatrix.from_rows(rows)
    for _ in range(2 * m):
        j = rng.randrange(units)
        i = rng.choice([c for c in range(m) if c != j])
        link = handle_slide(link, i, j, rng.choice((1, -1)))
    return link, sum(1 if x > 0 else -1 for x in diag)


SCALE_SEEDS = [(seed, m) for m in (8, 16, 40) for seed in (1, 2)]


class TestFramedLinkMatrix:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            FramedLinkMatrix.from_rows([[0, 1], [2, 0]])

    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            FramedLinkMatrix(J=((0, 1), (1,)))

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError):
            FramedLinkMatrix(J=((0.5,),))

    @pytest.mark.parametrize("rows,pointer", [([[1.7]], "/J/0/0"), ([["3"]], "/J/0/0"), ([[True]], "/J/0/0"),
                                              ([[0, 2.0], [2.0, 0]], "/J/0/1")])
    def test_from_rows_passes_entries_to_the_validator_unconverted(self, rows, pointer):
        with pytest.raises(SchemaError, match=f"^{pointer}: not an integer$"):
            FramedLinkMatrix.from_rows(rows)

    def test_empty_link(self):
        link = FramedLinkMatrix.from_rows([])
        assert link.m == 0

    def test_json_round_trip(self):
        link = FramedLinkMatrix.from_rows([[2, 1], [1, 3]])
        again = FramedLinkMatrix.from_json(json.dumps({"m": link.m, "J": [list(row) for row in link.J]}))
        assert again == link

    @pytest.mark.parametrize(
        "payload,pointer",
        [
            ('{"m": 2, "J": [[0, 1], [2, 0]]}', "/J/0/1"),
            ('{"m": 3, "J": [[0]]}', "/m"),
            ('{"m": true, "J": [[1]]}', "/m: expected an integer"),
            ('{"m": 1.0, "J": [[1]]}', "/m: expected an integer"),
            ('{"m": "1", "J": [[1]]}', "/m: expected an integer"),
            ('{"J": [[0, 1]]}', "/J/0"),
            ('{"J": [[0, 1], []]}', "/J/1"),
            ('{"J": [[0.5]]}', "/J/0/0"),
            ('{"J": [["3"]]}', "/J/0/0: not an integer"),
            ('{"J": [[true]]}', "/J/0/0: not an integer"),
            ('{"m": 1}', "/J"),
            ('{"J": 5}', "/J: expected a list of rows"),
            ("[1, 2]", "/"),
            ("not json", "/"),
        ],
    )
    def test_schema_errors_name_field(self, payload, pointer):
        with pytest.raises(SchemaError) as err:
            FramedLinkMatrix.from_json(payload)
        assert str(err.value).startswith(pointer)

    def test_deep_nesting_is_a_schema_error(self):
        with pytest.raises(SchemaError, match="^/: invalid JSON"):
            FramedLinkMatrix.from_json("[" * 100000)


class TestBlowUp:
    def test_block_sum(self):
        assert blow_up(FramedLinkMatrix.from_rows([[0]]), 1).J == ((0, 0), (0, 1))

    def test_empty_link(self):
        assert blow_up(FramedLinkMatrix.from_rows([]), 1).J == ((1,),)

    def test_negative_sign(self):
        out = blow_up(FramedLinkMatrix.from_rows([[2, 1], [1, 3]]), -1)
        assert out.J == ((2, 1, 0), (1, 3, 0), (0, 0, -1))

    def test_rejects_other_signs(self):
        with pytest.raises(ValueError):
            blow_up(FramedLinkMatrix.from_rows([[0]]), 2)


class TestBlowDown:
    def test_inverse_of_blow_up(self):
        assert blow_down(FramedLinkMatrix.from_rows([[0, 0], [0, 1]]), 1).J == ((0,),)

    def test_to_empty(self):
        assert blow_down(FramedLinkMatrix.from_rows([[1]]), 0).J == ()

    def test_linked_component_rejected(self):
        with pytest.raises(ValueError):
            blow_down(FramedLinkMatrix.from_rows([[1, 1], [1, 1]]), 1)

    def test_wrong_framing_rejected(self):
        with pytest.raises(ValueError):
            blow_down(FramedLinkMatrix.from_rows([[0, 0], [0, 2]]), 1)

    def test_round_trip_random(self):
        rng = random.Random(5)
        for _ in range(20):
            link = random_symmetric(rng, rng.randint(0, 4))
            sign = rng.choice((1, -1))
            assert blow_down(blow_up(link, sign), link.m) == link


class TestHandleSlide:
    def test_documented_example(self):
        out = handle_slide(FramedLinkMatrix.from_rows([[1, 0], [0, 1]]), 0, 1, 1)
        assert out.J == ((2, 1), (1, 1))

    def test_zero_matrix_fixed(self):
        link = FramedLinkMatrix.from_rows([[0, 0], [0, 0]])
        assert handle_slide(link, 0, 1, 1) == link

    def test_slide_then_unslide(self):
        rng = random.Random(7)
        for _ in range(30):
            m = rng.randint(2, 5)
            link = random_symmetric(rng, m)
            i, j = rng.sample(range(m), 2)
            assert handle_slide(handle_slide(link, i, j, 1), i, j, -1) == link

    def test_preserves_determinant(self):
        rng = random.Random(11)
        for _ in range(30):
            m = rng.randint(2, 5)
            link = random_symmetric(rng, m)
            i, j = rng.sample(range(m), 2)
            slid = handle_slide(link, i, j, rng.choice((1, -1)))
            assert det_int(link.J) == det_int(slid.J)

    def test_rejects_self_slide(self):
        with pytest.raises(ValueError):
            handle_slide(FramedLinkMatrix.from_rows([[0, 0], [0, 0]]), 1, 1, 1)


class TestSignature:
    @pytest.mark.parametrize(
        "rows,expected",
        [
            ([[1]], 1),
            ([[1, 0], [0, -2]], 0),
            ([[0, 1], [1, 0]], 0),
            ([[0]], 0),
            ([], 0),
            ([[3, 0, 0], [0, -1, 0], [0, 0, 5]], 1),
        ],
    )
    def test_values(self, rows, expected):
        assert signature(FramedLinkMatrix.from_rows(rows)) == expected

    def test_against_float_eigenvalues(self):
        rng = random.Random(21)
        checked = 0
        while checked < 60:
            link = random_symmetric(rng, rng.randint(1, 6))
            eigs = np.linalg.eigvalsh(np.array(link.J, dtype=float))
            if min(abs(e) for e in eigs) < 1e-6 and any(e != 0 for e in eigs):
                continue  # float oracle unreliable near singular spectra
            expected = int((eigs > 1e-6).sum() - (eigs < -1e-6).sum())
            assert signature(link) == expected
            checked += 1

    def test_invariant_under_slides(self):
        rng = random.Random(31)
        for _ in range(40):
            m = rng.randint(2, 5)
            link = random_symmetric(rng, m)
            i, j = rng.sample(range(m), 2)
            assert signature(handle_slide(link, i, j, rng.choice((1, -1)))) == signature(link)

    def test_blow_up_shifts_by_sign(self):
        rng = random.Random(41)
        for _ in range(20):
            link = random_symmetric(rng, rng.randint(0, 4))
            for sign in (1, -1):
                assert signature(blow_up(link, sign)) == signature(link) + sign

    @pytest.mark.parametrize("seed,m", SCALE_SEEDS)
    def test_inertia_of_slid_diagonal(self, seed, m):
        link, sig = slid_diagonal(seed, m)
        assert signature(link) == sig


class TestDiagonalizeModK:
    def test_already_diagonal(self):
        result = diagonalize_mod_k(FramedLinkMatrix.from_rows([[1, 0], [0, 2]]), ModK.from_modulus(5))
        assert result.U == ((1, 0), (0, 1))
        assert result.d == (1, 2)

    def verify_contract(self, link, ring, result):
        m, k = link.m, ring.k
        ju = [[sum(link.J[i][j] * result.U[j][c] for j in range(m)) % k for c in range(m)] for i in range(m)]
        for r in range(m):
            for c in range(m):
                entry = sum(result.U[i][r] * ju[i][c] for i in range(m))
                expected = result.d[r] if r == c else 0
                assert (entry - expected) % k == 0, (r, c)
        assert det_int(result.U) in (1, -1)

    def test_off_diagonal_pivot(self):
        link = FramedLinkMatrix.from_rows([[0, 1], [1, 0]])
        ring = ModK.from_modulus(5)
        result = diagonalize_mod_k(link, ring)
        self.verify_contract(link, ring, result)
        product = math.prod((gauss_sum_brute(5, d) for d in result.d), start=1 + 0j)
        brute = multivariate_gauss_sum(link, 5, Fraction(-1, 5), SumRange.ZERO_TO_KM1)
        assert abs(product - brute) < 1e-9

    def test_cancellation_prone_matrix(self):
        # off-diagonal 1 has minimal valuation but so does the diagonal -2;
        # sliding first would cancel to 0 + 2*1 - 2 = 0
        link = FramedLinkMatrix.from_rows([[0, 1], [1, -2]])
        ring = ModK.from_modulus(5)
        result = diagonalize_mod_k(link, ring)
        self.verify_contract(link, ring, result)

    @pytest.mark.parametrize("k", [5, 7, 9, 25])
    def test_random_property(self, k):
        rng = random.Random(1000 + k)
        ring = ModK.from_modulus(k)
        for _ in range(40):
            link = random_symmetric(rng, rng.randint(0, 4))
            result = diagonalize_mod_k(link, ring)
            self.verify_contract(link, ring, result)

    @pytest.mark.parametrize("k", [9, 125])
    @pytest.mark.parametrize("seed,m", SCALE_SEEDS)
    def test_contract_on_slid_diagonal(self, seed, m, k):
        link, _ = slid_diagonal(seed, m)
        ring = ModK.from_modulus(k)
        self.verify_contract(link, ring, diagonalize_mod_k(link, ring))

    def test_gauss_product_matches_brute_sum(self):
        rng = random.Random(77)
        for k in (5, 9, 13):
            ring = ModK.from_modulus(k)
            for _ in range(10):
                link = random_symmetric(rng, rng.randint(1, 3))
                result = diagonalize_mod_k(link, ring)
                product = math.prod((gauss_sum_brute(k, d) for d in result.d), start=1 + 0j)
                brute = multivariate_gauss_sum(link, k, Fraction(-1, k), SumRange.ZERO_TO_KM1)
                assert abs(product - brute) < 1e-6 * abs(brute)

    @pytest.mark.parametrize("k", [2, 4, 6, 15])
    def test_modulus_not_an_odd_prime_power_rejected(self, k):
        with pytest.raises(ValueError, match="not a power of a single odd prime"):
            diagonalize_mod_k(FramedLinkMatrix.from_rows([[1]]), ModK.from_modulus(k))

    def test_determinant_normalized_to_plus_one(self):
        rng = random.Random(88)
        ring = ModK.from_modulus(25)
        for _ in range(20):
            link = random_symmetric(rng, 4)
            assert det_int(diagonalize_mod_k(link, ring).U) == 1


# (J, k, U, d) recorded from the driver that threaded U as a second matrix: any change to U or d fails here
PINNED = [
    ([], 5, (), ()),  # m = 0
    ([[6]], 9, ((1,),), (6,)),  # m = 1, a pivot of valuation 1
    ([[14]], 7, ((1,),), (0,)),  # m = 1, a vanishing block
    ([[0, 1], [1, 0]], 5, ((1, -3), (1, -2)), (2, 2)),  # a slide, no swap
    # a slide, one swap, then a vanishing block
    ([[0, -6, 5], [-6, -6, 6], [5, 6, -6]], 3, ((1, -2, 0), (0, 0, -1), (1, -1, 0)), (1, 2, 0)),
    # a slide, one swap, a pivot of valuation 1, then a vanishing block
    ([[-5, 5, -3, -2], [5, -10, -6, -4], [-3, -6, 5, -5], [-2, -4, -5, -5]], 25,
     ((1, -21, 251, -139), (0, 1, -13, 7), (1, -21, 251, -140), (0, 0, 1, 0)), (19, 11, 15, 0)),
    # a slide, then two swaps
    ([[-3, -3, -5, 4], [-3, 3, -6, -5], [-5, -6, 0, -2], [4, -5, -2, -3]], 27,
     ((1, -17, 302, -2072), (0, 0, 0, 1), (1, -16, 284, -1949), (0, 0, 1, -7)), (14, 4, 16, 20)),
    # every entry divisible by p at e >= 2: four pivots of valuation 1, one swap
    ([[-15, 30, 20, 15], [30, 15, 20, 25], [20, 20, -5, -15], [15, 25, -15, -25]], 125,
     ((1, -7, 131, 1816), (0, 0, 1, 14), (0, 1, -22, -302), (0, 0, 0, -1)), (110, 105, 5, 105)),
    # every entry divisible by p at e >= 2: a slide, no swap, a vanishing block
    ([[-9, -15, -9], [-15, 9, 6], [-9, 6, 9]], 9, ((1, -2, 1), (1, -1, 0), (0, 0, 1)), (6, 3, 0)),
    # a slide and one swap at a large prime
    ([[-1000003, 3, -4, -4], [3, 0, 0, -1], [-4, 0, 0, -2], [-4, -1, -2, 1000003]], 1000003,
     ((1, -500002, 500002166669, 125001375005083340), (1, -500001, 500001166667, 125001125002916669),
      (0, 0, 0, -1), (0, 0, 1, 250002)), (6, 500000, 666666, 833340)),
]


@pytest.mark.parametrize("rows,k,U,d", PINNED)
def test_diagonalization_is_pinned(rows, k, U, d):
    result = diagonalize_mod_k(FramedLinkMatrix.from_rows(rows), ModK.from_modulus(k))
    assert (result.U, result.d) == (U, d)


def _full_scan_driver(a, valuation, cap, eliminate):
    """The symmetric-elimination driver without the diagonal-unit shortcut: every pivot from a full scan."""
    m = len(a[0]) if a else 0
    odd = False
    for t in range(m):
        vmin = min(valuation(a[r][c]) for r in range(t, m) for c in range(t, m))
        if vmin >= cap:
            break
        diag = next((i for i in range(t, m) if valuation(a[i][i]) == vmin), None)
        if diag is None:
            i, j = next((r, c) for r in range(t, m) for c in range(t, m) if r != c and valuation(a[r][c]) == vmin)
            for row in a:
                row[i] += row[j]
            for c in range(m):
                a[i][c] += a[j][c]
            diag = i
        if diag != t:
            a[diag], a[t] = a[t], a[diag]
            for row in a:
                row[diag], row[t] = row[t], row[diag]
            odd = not odd
        eliminate(t, vmin)
    if odd:
        for row in a[m:]:
            row[m - 1] = -row[m - 1]


_SHORTCUT_DRIVER = linkalg._reduce_symmetric


class TestPivotShortcut:
    """The driver's diagonal-unit shortcut takes the same pivots as a full scan of the active block."""

    @staticmethod
    def _run(monkeypatch, driver, compute):
        """compute()'s result and its pivots (step, valuation, pivot entry, U so far) under the given driver."""
        pivots = []

        def recording(a, valuation, cap, eliminate):
            def step(t, v):
                pivots.append((t, v, a[t][t], tuple(map(tuple, a[len(a[0]):]))))
                eliminate(t, v)

            return driver(a, valuation, cap, step)

        monkeypatch.setattr(linkalg, "_reduce_symmetric", recording)
        return compute(), pivots

    @staticmethod
    def _matrices(seed, p):
        """Seeded symmetric matrices, half of them with every diagonal entry divisible by p (no diagonal unit)."""
        rng = random.Random(seed)
        for n in range(24):
            m = rng.randint(1, 6)
            rows = [list(row) for row in random_symmetric(rng, m, -30, 30).J]
            if n % 2:
                for i in range(m):
                    rows[i][i] = p * rng.randint(-4, 4)
            yield FramedLinkMatrix.from_rows(rows)

    def _check(self, monkeypatch, links, compute, is_unit):
        scanned = 0
        for link in links:
            fast = self._run(monkeypatch, _SHORTCUT_DRIVER, lambda: compute(link))
            full = self._run(monkeypatch, _full_scan_driver, lambda: compute(link))
            assert fast == full
            # the first pivot came from the scan: no diagonal unit, yet the block was not zero
            scanned += not any(is_unit(row[i]) for i, row in enumerate(link.J)) and bool(full[1])
        assert scanned

    @pytest.mark.parametrize("k", [3, 9, 25, 27, 125])
    def test_diagonalize_mod_k(self, monkeypatch, k):
        ring = ModK.from_modulus(k)
        self._check(monkeypatch, self._matrices(k, ring.p), lambda link: diagonalize_mod_k(link, ring),
                    lambda x: x % ring.p != 0)

    def test_signature(self, monkeypatch):
        # p = 0: half the matrices have a zero diagonal
        self._check(monkeypatch, self._matrices(7, 0), signature, lambda x: x != 0)


def _three_pass_diagonalize(link, ring):
    """diagonalize_mod_k with its earlier eliminate step: a full-row, a full-column and a U pass for each row."""
    m, k, p, e = link.m, ring.k, ring.p, ring.e
    a = [[x % k for x in row] for row in link.J] + [[int(r == c) for c in range(m)] for r in range(m)]
    u = a[m:]

    def eliminate(t, vmin):
        inv = pow(a[t][t] // p**vmin, -1, p ** (e - vmin))
        for r in range(t + 1, m):
            x = a[r][t]
            if x == 0:
                continue
            c = (x // p**vmin) * inv % p ** (e - vmin)
            for s in range(m):
                a[r][s] = (a[r][s] - c * a[t][s]) % k
            for s in range(m):
                a[s][r] = (a[s][r] - c * a[s][t]) % k
            for s in range(m):
                u[s][r] -= c * u[s][t]

    linkalg._reduce_symmetric(a, ring.valuation, e, eliminate)
    return tuple(tuple(row) for row in u), tuple(a[i][i] % k for i in range(m))


class TestSchurStep:
    """diagonalize_mod_k's upper-triangle step takes the same pivots and gives the same d and U as the three-pass step."""

    @staticmethod
    def _run(monkeypatch, compute):
        return TestPivotShortcut._run(monkeypatch, _SHORTCUT_DRIVER, compute)

    def _check(self, monkeypatch, k, sizes, seed):
        ring = ModK.from_modulus(k)
        rng = random.Random(seed)
        scanned = 0
        for n, m in enumerate(sizes):
            rows = [list(row) for row in random_symmetric(rng, m, -3 * k, 3 * k).J]
            if n % 3:  # no diagonal unit: the first pivot comes from a scan, and often a slide
                for i in range(m):
                    rows[i][i] = ring.p * rng.randint(-4, 4)
            if n % 3 == 2:  # every entry divisible by p: pivots of valuation 1 where e > 1
                rows = [[ring.p * x for x in row] for row in rows]
            link = FramedLinkMatrix.from_rows(rows)
            result, pivots = self._run(monkeypatch, lambda: diagonalize_mod_k(link, ring))
            assert ((result.U, result.d), pivots) == self._run(monkeypatch, lambda: _three_pass_diagonalize(link, ring))
            scanned += n % 3 == 1 and bool(pivots)
        assert scanned

    @pytest.mark.parametrize("k", [3, 9, 25, 27, 125, 1000003])
    def test_small_matrices(self, monkeypatch, k):
        self._check(monkeypatch, k, [m for m in range(1, 9) for _ in range(4)], seed=k)

    def test_m40(self, monkeypatch):
        self._check(monkeypatch, 1000003, [40, 40], seed=40)
