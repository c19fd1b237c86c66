import math
import tracemalloc

import numpy as np
import pytest

from qtopo.numtheory import gauss_sum_brute, is_prime, primitive_root
from qtopo.qsim import (
    PhaseEstimate,
    StateVector,
    apply_unitary,
    estimate_report,
    gauss_phase_encode,
    legendre_amplitudes,
    phase_estimate,
    prepare_legendre_state,
    qft_matrix,
    sample_schedule,
    true_phase,
)


def circular_distance(a: float, b: float) -> float:
    return abs((a - b + math.pi) % (2.0 * math.pi) - math.pi)


def basis(k: int, n: int) -> StateVector:
    amps = np.zeros(k, dtype=np.complex128)
    amps[n] = 1.0
    return StateVector(dims=(k,), amps=amps)


@pytest.mark.parametrize("call,message", [
    (lambda: StateVector(dims=(2, 3), amps=np.zeros(5, dtype=np.complex128)),
     "amplitude vector has shape (5,), expected (6,)"),
    (lambda: apply_unitary(basis(3, 0), np.eye(2), 0), "matrix shape (2, 2) does not fit register of dimension 3"),
    (lambda: prepare_legendre_state(1031), "k=1031 exceeds the simulator cap 1024"),
], ids=["state-shape", "unitary-shape", "beyond-cap"])
def test_rejected_arguments(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def dense_legendre_state(k: int) -> np.ndarray:
    """Oracle for the kickback: the whole (k, k-1) joint state, shifted and projected at once."""
    anc = k - 1
    joint = np.zeros((k, anc), dtype=np.complex128)
    joint[1:, 1] = 1.0 / math.sqrt(k - 1)  # |n>|1>, n uniform over 1..k-1
    joint = np.fft.fft(joint, axis=1)  # Fourier transform the ancilla register
    joint /= math.sqrt(anc)

    g = primitive_root(k)
    dlog = np.zeros(k, dtype=np.int64)
    x = 1
    for j in range(anc):
        dlog[x] = j
        x = x * g % k
    shift = (k - 1) // 2 * dlog % anc  # row 0 holds no amplitude; its shift is 0
    # np.roll by shift[n] on every row at once: out[n, j] = joint[n, j - shift[n]]
    joint = np.take_along_axis(joint, (np.arange(anc) - shift[:, None]) % anc, axis=1)

    one = np.zeros(anc, dtype=np.complex128)
    one[1] = 1.0
    anc_state = np.fft.fft(one) / math.sqrt(anc)
    main = joint @ anc_state.conj()
    assert np.abs(joint - np.outer(main, anc_state)).max() <= 1e-10
    return main


def dense_control_zero_probabilities(chi: np.ndarray, encoded: np.ndarray) -> tuple[float, float]:
    """Oracle for the interferometer: the (2, k) joint state, then each control gate applied through apply_unitary."""
    k = len(chi)
    # (|0> + |1>)/sqrt(2) (x) |chi>, then the encode conditioned on the control
    state = StateVector(dims=(2, k), amps=np.concatenate([chi, encoded]) / math.sqrt(2.0))
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / math.sqrt(2.0)
    to_imag = np.array([[1.0, -1.0j], [1.0, 1.0j]], dtype=np.complex128) / math.sqrt(2.0)
    blocks = [apply_unitary(state, gate, 0).amps.reshape(2, k)[0] for gate in (hadamard, to_imag)]
    return tuple(float(np.real(np.vdot(block, block))) for block in blocks)


class TestQft:
    def test_zero_state_goes_uniform(self):
        out = apply_unitary(basis(3, 0), qft_matrix(3), 0)
        assert np.allclose(out.amps, np.full(3, 1 / math.sqrt(3)), atol=1e-12)

    def test_one_state_phases(self):
        out = apply_unitary(basis(3, 1), qft_matrix(3), 0)
        w = np.exp(-2j * math.pi / 3)
        expected = np.array([1, w, w**2]) / math.sqrt(3)
        assert np.allclose(out.amps, expected, atol=1e-12)

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(5)
        for k in (3, 5, 13):
            amps = rng.normal(size=k) + 1j * rng.normal(size=k)
            amps /= np.linalg.norm(amps)
            state = StateVector(dims=(k,), amps=amps)
            back = apply_unitary(apply_unitary(state, qft_matrix(k), 0), qft_matrix(k).conj().T, 0)
            assert np.abs(back.amps - amps).max() < 1e-12

    def test_unitary_norm_drift(self):
        rng = np.random.default_rng(11)
        k = 7
        amps = rng.normal(size=k) + 1j * rng.normal(size=k)
        amps /= np.linalg.norm(amps)
        state = StateVector(dims=(k,), amps=amps)
        for _ in range(100):
            a = int(rng.choice([x for x in range(1, k) if math.gcd(x, k) == 1]))
            state = apply_unitary(state, qft_matrix(k, a), 0)
        assert abs(np.linalg.norm(state.amps) - 1.0) < 1e-10

    def test_scaled_matrix_requires_coprime_parameter(self):
        with pytest.raises(ValueError, match="^2 is not coprime to k=6$"):
            qft_matrix(6, 2)

    def test_register_out_of_range(self):
        with pytest.raises(ValueError):
            apply_unitary(basis(3, 0), qft_matrix(3), 1)


class TestPrepareLegendreState:
    def test_k5_amplitudes(self):
        state = prepare_legendre_state(5)
        expected = np.array([0.0, 0.5, -0.5, -0.5, 0.5])
        assert np.abs(state - expected).max() < 1e-10

    def test_k3_amplitudes(self):
        state = prepare_legendre_state(3)
        expected = np.array([0.0, 1.0, -1.0]) / math.sqrt(2)
        assert np.abs(state - expected).max() < 1e-10

    def test_normalized_with_zero_vacancy(self):
        for k in (3, 5, 7, 11, 13):
            state = prepare_legendre_state(k)
            assert abs(np.linalg.norm(state) - 1.0) < 1e-10
            assert state[0] == 0.0

    def test_matches_character_table(self):
        for k in (7, 11, 101, 131, 137, 1009, 1019, 1021):
            assert np.abs(prepare_legendre_state(k) - legendre_amplitudes(k)).max() < 1e-10

    @pytest.mark.parametrize("k", [4, 9, 15, 2])
    def test_rejects_non_prime(self, k):
        with pytest.raises(ValueError):
            prepare_legendre_state(k)


class TestStreamedKickback:
    @pytest.mark.parametrize("k", [3, 5, 7, 11, 101, 131, 1009, 1019, 1021])
    def test_matches_dense_kickback(self, k):
        assert np.array_equal(prepare_legendre_state(k), dense_legendre_state(k))

    @pytest.mark.parametrize("branch", [0, 1])
    def test_entanglement_is_checked_on_every_branch(self, monkeypatch, branch):
        # a cyclic shift of a Fourier state never entangles, so corrupt the product that the
        # check subtracts, in one branch's row only
        real_outer = np.outer

        def outer(a, b):
            out = real_outer(a, b)
            assert len(a) == 2  # one row per distinct shift: 0 and (k-1)/2
            out[branch, -1] += 1e-9
            return out

        monkeypatch.setattr(np, "outer", outer)
        with pytest.raises(RuntimeError, match="entangled"):
            prepare_legendre_state(1021)

    def test_peak_memory_stays_below_a_dense_joint(self):
        prepare_legendre_state(1021)  # warm-up: FFT plan caches
        tracemalloc.start()
        try:
            prepare_legendre_state(1021)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20  # the dense (1021, 1020) joint and its temporaries peaked at 47.7 MiB


class TestGaussPhaseEncode:
    @pytest.mark.parametrize(
        "k,a,expected",
        [
            (5, 1, 1.0 + 0.0j),
            (5, 2, -1.0 + 0.0j),
            (3, 1, -1.0j),
        ],
    )
    def test_global_phase(self, k, a, expected):
        chi = prepare_legendre_state(k)
        out = gauss_phase_encode(chi, a)
        overlap = np.vdot(chi, out)
        assert abs(overlap - expected) < 1e-9

    def test_fidelity_and_phase_all_small_primes(self):
        for k in (3, 5, 7, 11, 13):
            chi = prepare_legendre_state(k)
            for a in range(1, k):
                out = gauss_phase_encode(chi, a)
                overlap = np.vdot(chi, out)
                assert abs(abs(overlap) - 1.0) < 1e-9
                expected = gauss_sum_brute(k, a) / math.sqrt(k)
                assert circular_distance(float(np.angle(overlap)), float(np.angle(expected))) < 1e-9

    # 131 and 1019 are 3 mod 4, where G(k, a) is imaginary: a transform of the wrong sign shows only there
    @pytest.mark.parametrize("k", [101, 131, 137, 1009, 1019, 1021])
    def test_matches_dense_fourier_matrix(self, k):
        chi = prepare_legendre_state(k)
        for a in (1, 2, k - 1, 4 * k - 3, -3):
            dense = apply_unitary(StateVector(dims=(k,), amps=chi), qft_matrix(k, a), 0)
            assert np.abs(gauss_phase_encode(chi, a) - dense.amps).max() < 1e-12

    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError, match="^10 is not coprime to k=5$"):
            gauss_phase_encode(prepare_legendre_state(5), 10)

    def test_rejects_non_character_state(self):
        state = basis(5, 1).amps
        with pytest.raises(ValueError):
            gauss_phase_encode(state, 2)

    def test_rejects_a_joint_state(self):
        chi = prepare_legendre_state(5)
        with pytest.raises(ValueError, match="single-register"):
            gauss_phase_encode(np.outer([1.0, 0.0], chi), 2)


class TestPhaseEstimate:
    def test_schedule(self):
        assert sample_schedule(0.05) == math.ceil(8 * math.log(40) / 0.05**2)
        with pytest.raises(ValueError):
            sample_schedule(0.0)
        with pytest.raises(ValueError):
            sample_schedule(1.5)

    @pytest.mark.parametrize(
        "k,a,target",
        [
            (5, 2, math.pi),
            (5, 1, 0.0),
            (3, 1, -math.pi / 2),
        ],
    )
    def test_documented_estimates(self, k, a, target):
        est = phase_estimate(k, a, 0.05, seed=7)
        assert circular_distance(est.phi, target) <= 0.05
        assert -math.pi < est.phi <= math.pi

    def test_confidence_interval_meets_target(self):
        est = phase_estimate(5, 2, 0.05, seed=0)
        assert isinstance(est, PhaseEstimate)
        assert est.ci_halfwidth <= est.epsilon
        assert est.samples == sample_schedule(0.05)

    def test_deterministic_given_seed(self):
        a = phase_estimate(7, 3, 0.05, seed=123)
        b = phase_estimate(7, 3, 0.05, seed=123)
        assert a == b

    def test_seed_changes_samples(self):
        a = phase_estimate(7, 3, 0.3, seed=1)
        b = phase_estimate(7, 3, 0.3, seed=2)
        assert a.phi != b.phi  # overwhelmingly likely at this shot count

    @pytest.mark.parametrize("k,a_values", [(k, range(1, k)) for k in range(3, 102) if is_prime(k)]
                             + [(1009, (1, 2, 3, 1008, -3, 4033)), (1021, (1, 2, 5, 1020, -7, 3061))])
    def test_overlap_probabilities_match_the_dense_interferometer(self, monkeypatch, k, a_values):
        drawn = []
        real_rng = np.random.default_rng

        class Recorder:
            """Records each probability phase_estimate hands to the sampler."""

            def __init__(self, seed):
                self.rng = real_rng(seed)

            def binomial(self, n, p):
                drawn.append(p)
                return self.rng.binomial(n, p)

        monkeypatch.setattr(np.random, "default_rng", Recorder)
        chi = prepare_legendre_state(k)
        for a in a_values:
            encoded = gauss_phase_encode(chi, a)
            z = complex(np.vdot(chi, encoded))
            p_cos, p_sin = dense_control_zero_probabilities(chi, encoded)
            assert abs(p_cos - (1.0 + z.real) / 2.0) <= 1e-12 and abs(p_sin - (1.0 + z.imag) / 2.0) <= 1e-12
            drawn.clear()
            phase_estimate(k, a, 0.3)
            assert len(drawn) == 2
            assert abs(drawn[0] - p_cos) <= 1e-12 and abs(drawn[1] - p_sin) <= 1e-12, (k, a)

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            phase_estimate(5, 2, 0.0)

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError, match="^5 is not coprime to k=5$"):
            phase_estimate(5, 5, 0.05)

    def test_true_phase_from_brute_force(self):
        for k, a in ((5, 1), (5, 2), (7, 3), (13, 5)):
            expected = np.angle(gauss_sum_brute(k, a) / math.sqrt(k))
            assert circular_distance(true_phase(k, a), float(expected)) == 0.0

    def test_report_fields(self):
        report = estimate_report(5, 2, 0.05, seed=7)
        assert set(report) == {"k", "a", "phi_hat", "phi_true", "epsilon", "samples", "seed"}
        assert circular_distance(report["phi_hat"], report["phi_true"]) <= 0.05
