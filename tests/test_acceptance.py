"""Acceptance suite: one test per release criterion, at the stated tolerance.

Each test prints a single PASS/FAIL line (visible with pytest -s) and also
enforces its runtime budget.
"""

import math
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from geom_helpers import hopf_pair, outward_offsets, ring, twisted_offsets
from qtopo.invariants import check_kirby_invariance, tau_abelian, tau_dw, tau_su2_k3
from qtopo.linkalg import FramedLinkMatrix, blow_up, diagonalize_mod_k, handle_slide
from qtopo.linkgeom import gauss_integral, linking_number, self_linking
from qtopo.numtheory import ModK, gauss_sum_brute, is_prime, legendre_chi
from qtopo.qsim import phase_estimate, prepare_legendre_state, gauss_phase_encode, true_phase
from test_linkalg import det_int, random_symmetric

ODD_PRIMES_TO_101 = [p for p in range(3, 102) if is_prime(p)]


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"ACCEPTANCE {number:2d} FAIL ({elapsed:6.2f}s): {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number:2d} PASS ({elapsed:6.2f}s): {description}")
    assert elapsed < budget_seconds, f"criterion {number} took {elapsed:.2f}s > {budget_seconds}s"


def circular_distance(a: float, b: float) -> float:
    return abs((a - b + math.pi) % (2.0 * math.pi) - math.pi)


def _criterion3_cases():
    rng = random.Random(20240501)
    cases = []
    for _ in range(200):
        k = rng.choice((5, 7, 9, 13, 25))
        m = rng.randint(1, 4)
        cases.append((random_symmetric(rng, m), ModK.from_modulus(k)))
    return cases


CASES_3 = _criterion3_cases()


def test_criterion_01_gauss_modulus_law():
    with criterion(1, "|G(k,a)| = sqrt(k) for all odd primes k <= 101, all coprime a", 5.0):
        for k in ODD_PRIMES_TO_101:
            root = math.sqrt(k)
            for a in range(1, k):
                assert abs(abs(gauss_sum_brute(k, a)) - root) < 1e-9, (k, a)


def test_criterion_02_twist_law():
    with criterion(2, "G(k, a*l) = chi(1/l) G(k, a) on 1000 random (k, a, l)", 5.0):
        rng = random.Random(777)
        for _ in range(1000):
            k = rng.choice(ODD_PRIMES_TO_101)
            a = rng.randrange(1, k)
            l = rng.randrange(1, k)
            lhs = gauss_sum_brute(k, a * l)
            rhs = legendre_chi(pow(l, -1, k), k) * gauss_sum_brute(k, a)
            assert abs(lhs - rhs) < 1e-9, (k, a, l)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_criterion_03_abelian_oracle_equivalence():
    with criterion(3, "factorized tau_A equals brute force on 200 random (J, k)", 60.0):
        for link, ring in CASES_3:
            brute = tau_abelian(link, ring, method="brute").value
            fact = tau_abelian(link, ring, method="factorized").value
            assert abs(brute - fact) <= 1e-6 * abs(brute), (link.J, ring.k)


def test_criterion_04_diagonalization_contract():
    with criterion(4, "det U = +-1 exactly and U^T J U = diag(d) mod k on all 200 cases", 60.0):
        for link, ring in CASES_3:
            result = diagonalize_mod_k(link, ring)
            assert det_int(result.U) in (1, -1), (link.J, ring.k)
            m = link.m
            u = result.U
            for r in range(m):
                for c in range(m):
                    entry = sum(u[i][r] * link.J[i][j] * u[j][c] for i in range(m) for j in range(m))
                    expected = result.d[r] if r == c else 0
                    assert (entry - expected) % ring.k == 0, (link.J, ring.k, r, c)


def test_criterion_05_su2k3_kirby_invariance():
    with criterion(5, "tau_SU(2),k=3 invariant under 100 random 10-move scripts; S^3 and S^1xS^2 values", 120.0):
        assert abs(tau_su2_k3(FramedLinkMatrix.from_rows([[1]])).value - 1.0) < 1e-9
        assert abs(tau_su2_k3(FramedLinkMatrix.from_rows([[-1]])).value - 1.0) < 1e-9
        assert abs(tau_su2_k3(FramedLinkMatrix.from_rows([[0]])).value - math.sqrt(2)) < 1e-9
        rng = random.Random(424242)
        for case in range(100):
            link = random_symmetric(rng, rng.randint(1, 5))
            report = check_kirby_invariance(link, "su2k3", 10, seed=rng.randrange(10**9))
            assert abs(report.after - report.before) < 1e-9, (case, link.J, report.script)
            assert report.passed


def test_criterion_06_abelian_phase_invariance():
    with criterion(6, "tau_A phase fixed and modulus x sqrt(k) per blow-up; slides exact (k in {5,13})", 120.0):
        rng = random.Random(1313)
        for case in range(50):
            k = rng.choice((5, 13))
            ring = ModK.from_modulus(k)
            link = random_symmetric(rng, rng.randint(1, 3))
            base = tau_abelian(link, ring, method="brute").value

            blown = blow_up(link, rng.choice((1, -1)))
            after = tau_abelian(blown, ring, method="brute").value
            assert abs(after / abs(after) - base / abs(base)) < 1e-9, (case, k, link.J)
            assert abs(abs(after) - abs(base) * math.sqrt(k)) < 1e-9 * abs(base), (case, k)

            if link.m >= 2:
                i, j = rng.sample(range(link.m), 2)
                slid = handle_slide(link, i, j, rng.choice((1, -1)))
                assert abs(tau_abelian(slid, ring, method="brute").value - base) < 1e-9 * max(abs(base), 1.0)


def test_criterion_07_dw_slide_invariance():
    with criterion(7, "tau_DW (full range) slide-invariant on 50 random cases; unknot value sqrt(5)/5", 60.0):
        value = tau_dw(FramedLinkMatrix.from_rows([[1]]), 5, "full").value
        assert abs(value - math.sqrt(5) / 5) < 1e-9
        rng = random.Random(70707)
        for case in range(50):
            k = rng.choice((3, 5, 7, 9))
            m = rng.randint(2, 4)
            link = random_symmetric(rng, m)
            base = tau_dw(link, k, "full").value
            i, j = rng.sample(range(m), 2)
            slid = handle_slide(link, i, j, rng.choice((1, -1)))
            assert abs(tau_dw(slid, k, "full").value - base) < 1e-9, (case, k, link.J)


def test_criterion_08_simulator_algebra():
    with criterion(8, "encode output = (G(k,a)/sqrt(k)) |chi> for k in {3,5,7,11,13}, all coprime a", 30.0):
        for k in (3, 5, 7, 11, 13):
            chi = prepare_legendre_state(k)
            for a in range(1, k):
                out = gauss_phase_encode(chi, a)
                overlap = complex(np.vdot(chi, out))
                assert abs(overlap) >= 1.0 - 1e-9, (k, a)
                expected = gauss_sum_brute(k, a) / math.sqrt(k)
                gap = circular_distance(math.atan2(overlap.imag, overlap.real),
                                        math.atan2(expected.imag, expected.real))
                assert gap < 1e-9, (k, a)


def test_criterion_09_phase_estimation():
    with criterion(9, "phase estimate within 0.05 in >= 95/100 seeded trials for 4 (k, a) pairs", 120.0):
        epsilon = 0.05
        for k, a in ((5, 1), (5, 2), (7, 3), (13, 5)):
            target = true_phase(k, a)
            seeds = np.random.SeedSequence(987654321 + k * 101 + a)
            hits = 0
            for child in seeds.spawn(100):
                seed = int(child.generate_state(1)[0])
                est = phase_estimate(k, a, epsilon, seed=seed)
                if circular_distance(est.phi, target) <= epsilon:
                    hits += 1
            assert hits >= 95, (k, a, hits)


def test_criterion_10_polygonal_geometry():
    with criterion(10, "Hopf linking +-1, split 0, residual < 1e-6; self-linking delta-stable", 5.0):
        a, b = hopf_pair()
        raw = gauss_integral(a, b)
        assert abs(raw - round(raw)) < 1e-6
        assert abs(linking_number(a, b)) == 1
        assert linking_number(a, b + np.array([100.0, 0.0, 0.0])) == 0

        for turns, expected in ((0, 0), (1, 1), (-1, 1), (2, 2)):
            curve = ring(n=16, radius=2.0)
            offsets = twisted_offsets(curve, turns) if turns else outward_offsets(curve)
            value = self_linking(curve, offsets, 0.2)  # raises if delta-unstable
            assert abs(value) == expected, turns
