"""Statevector simulation of the Gauss-sum phase estimation algorithm.

Registers are qudits: the main register has dimension k (an odd prime), the
character-kickback ancilla has dimension k-1 and the interferometric control
is a qubit. A register's worth of cyclic shift acting on the Fourier state
of the ancilla kicks the Legendre character of the main register's residue
out as a global +-1 phase; the ancilla group must therefore be the image of
the discrete logarithm, Z_{k-1}, where half the group order is an integer.

States are plain amplitude vectors. Fourier transforms are applied as FFTs
(the dense qft_matrix is their test oracle), and the discrete-log
controlled shift as the permutation it is, not compiled to elementary
gates. That shift takes only two values, so the kickback's two-register
state has only two distinct rows: each is built, projected and checked
once, and time and memory grow as O(k). The control qubit is not built:
its two readout probabilities are (1 + Re z)/2 and (1 + Im z)/2 for the
overlap z = <chi|U_a chi>.

StateVector and apply_unitary, the dense joint-register machinery, are kept
only as the test oracle (with qft_matrix), which the benchmark's tracer
also names. Each phase_estimate call draws its shots from one
np.random.default_rng(seed).

numpy is imported on first array use, inside each function that builds
arrays, so importing this module (for MAX_DIM or sample_schedule, say) does
not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .numtheory import Character, gauss_sum_brute, primitive_root, require_coprime, require_odd_prime

if TYPE_CHECKING:
    import numpy as np

# Largest register dimension, part of simulate's interface. The simulation is O(k); the cap keeps
# the dense k x k oracles that tests compare it with (qft_matrix, the whole kickback) near 10^6 amplitudes.
MAX_DIM = 1024

# Sample schedule: per measurement basis, ceil(8*ln(40)/eps**2) shots give
# joint 95% confidence that the estimated phase is within eps (Hoeffding on
# both quadrature probabilities, then the arcsine perturbation bound).
_SCHEDULE_CONST = 8.0 * math.log(40.0)
_CONFIDENCE_T = lambda n: math.sqrt(math.log(80.0) / (2.0 * n))


@dataclass
class StateVector:
    """Complex amplitudes over one or more qudit registers.

    dims lists each register's dimension; amps is the flat amplitude vector
    of length prod(dims), last register fastest.
    """

    dims: tuple[int, ...]
    amps: np.ndarray

    def __post_init__(self) -> None:
        size = math.prod(self.dims)
        if self.amps.shape != (size,):
            raise ValueError(f"amplitude vector has shape {self.amps.shape}, expected ({size},)")

    @property
    def regs(self) -> int:
        return len(self.dims)


def apply_unitary(state: StateVector, matrix: np.ndarray, reg: int) -> StateVector:
    """Apply a dense unitary to one register of a (possibly joint) state."""
    import numpy as np

    if not 0 <= reg < state.regs:
        raise ValueError(f"register {reg} out of range for {state.regs} registers")
    d = state.dims[reg]
    if matrix.shape != (d, d):
        raise ValueError(f"matrix shape {matrix.shape} does not fit register of dimension {d}")
    tensor = state.amps.reshape(state.dims)
    tensor = np.moveaxis(np.tensordot(matrix, tensor, axes=([1], [reg])), 0, reg)
    return StateVector(dims=state.dims, amps=np.ascontiguousarray(tensor.reshape(-1)))


def qft_matrix(k: int, a: int = 1) -> np.ndarray:
    """Fourier matrix F[s, p] = exp(-2*pi*i * a*p*s / k) / sqrt(k).

    The optional multiplier a composes the transform with the relabeling
    p -> a*p; the matrix is unitary whenever gcd(a, k) = 1.
    """
    import numpy as np

    require_coprime(a, k)
    grid = np.outer(np.arange(k), np.arange(k) * (a % k)) % k
    return np.exp(-2.0j * math.pi * grid / k) / math.sqrt(k)


def legendre_amplitudes(k: int) -> np.ndarray:
    """Reference amplitudes chi(n)/sqrt(k-1) of the character state."""
    import numpy as np

    chi = Character.legendre(k)
    return np.array(chi.table, dtype=np.complex128) / math.sqrt(k - 1)


def prepare_legendre_state(k: int) -> np.ndarray:
    """Build the Legendre character state by Fourier-ancilla phase kickback.

    Start from the uniform superposition of nonzero residues with the
    ancilla at |1>, Fourier-transform the ancilla over Z_{k-1}, then shift
    the ancilla by (k-1)/2 * dlog(n) conditioned on the main register. The
    ancilla is an eigenvector of every shift, so each branch only acquires
    the phase (-1)^dlog(n) = chi(n). After checking the registers are
    unentangled (to 1e-10) the ancilla is projected out.

    Before the shift the joint (k, k-1) state is a product, so the ancilla
    is transformed once. Every row n >= 1 is then that one row rolled by
    the shift of n, and equal shifts give equal rows: each distinct row is
    built, projected and checked once, and its amplitude goes to every
    residue with that shift. Row 0 holds no amplitude and projects to 0.
    """
    import numpy as np

    require_odd_prime(k)
    if k > MAX_DIM:
        raise ValueError(f"k={k} exceeds the simulator cap {MAX_DIM}")
    anc = k - 1
    one = np.zeros(anc, dtype=np.complex128)
    one[1] = 1.0
    anc_state = np.fft.fft(one) / math.sqrt(anc)  # the ancilla should return to its Fourier state
    # every row n >= 1 of |n>|1>, n uniform over 1..k-1, after the ancilla's Fourier transform
    row = np.fft.fft(one / math.sqrt(k - 1))
    row /= math.sqrt(anc)

    g = primitive_root(k)
    dlog = np.zeros(k, dtype=np.int64)
    x = 1
    for j in range(anc):  # one walk over the powers of g: dlog[g**j mod k] = j
        dlog[x] = j
        x = x * g % k

    # the controlled shift of each row n >= 1: only 0 and (k-1)/2 occur
    shifts, branch = np.unique((k - 1) // 2 * dlog[1:] % anc, return_inverse=True)
    # np.roll by each distinct shift s: rows[b, j] = row[j - shifts[b]], a negative index wrapping
    rows = row[np.arange(anc) - shifts[:, None]]
    amps = rows @ anc_state.conj()
    rows -= np.outer(amps, anc_state)
    if np.abs(rows).max() > 1e-10:
        raise RuntimeError("ancilla is entangled after kickback; cannot discard")
    main = np.zeros(k, dtype=np.complex128)
    main[1:] = amps[branch]
    return main


def gauss_phase_encode(state: np.ndarray, a: int) -> np.ndarray:
    """Concentrate the Gauss-sum phase of parameter a onto the character state.

    Applies the Fourier transform with multiplier a, qft_matrix(k, a), as
    an FFT read at index a*s mod k; the character identity turns the
    transformed amplitudes back into the input state scaled by the global
    factor G(k, a)/sqrt(k). (The follow-up character relabeling in the
    construction squares the +-1 character and is the identity.)
    """
    import numpy as np

    if state.ndim != 1:
        raise ValueError("expected a single-register character state")
    k = len(state)
    require_coprime(a, k)
    reference = legendre_amplitudes(k)
    if abs(np.vdot(reference, state)) < 1.0 - 1e-10:
        raise ValueError("input state is not the Legendre character state")
    spectrum = np.fft.fft(state)
    return spectrum[(a % k) * np.arange(k) % k] / math.sqrt(k)


@dataclass(frozen=True)
class PhaseEstimate:
    """Estimated Gauss-sum phase with its sampling confidence interval.

    phi is in (-pi, pi]; samples counts shots per measurement basis;
    ci_halfwidth bounds |phi_hat - phi| at 95% confidence jointly over the
    two bases.
    """

    phi: float
    samples: int
    epsilon: float
    ci_halfwidth: float


def sample_schedule(epsilon: float) -> int:
    """Shots per basis for a phase error below epsilon at 95% confidence."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    shots = _SCHEDULE_CONST / epsilon**2 if epsilon**2 > 0.0 else math.inf
    if not shots < 2**63:  # numpy's binomial sampler takes an int64 count (and draws it in O(1))
        raise ValueError(f"epsilon={epsilon} needs {shots:.3g} shots per basis, beyond the int64 range")
    return math.ceil(shots)


def phase_estimate(k: int, a: int, epsilon: float, seed: int = 0) -> PhaseEstimate:
    """Interferometric estimate of the phase of G(k, a)/sqrt(k).

    A control qubit selects whether the encoding unitary acts on the
    character state; measuring the control along the two equatorial bases
    estimates cos(phi) and sin(phi), and phi_hat = atan2 of the two
    frequencies, in (-pi, pi] with no wrap. Both readout probabilities come
    from the one overlap z = <chi|U_a chi>; shots follow sample_schedule.

    A Gauss sum's phase is a multiple of pi/2, so in exact arithmetic p_cos
    or p_sin is exactly 1/2. numpy's binomial sampler branches on p > 0.5,
    so the last bit of that probability picks which of two equally valid
    draws a seed gives: any change in how the amplitudes are rounded can
    move phi_hat under a fixed seed, within the same confidence interval.
    """
    import numpy as np

    shots = sample_schedule(epsilon)
    chi = prepare_legendre_state(k)
    # the control reads 0 with probability (1 + Re z)/2 in the X basis and (1 + Im z)/2 in the Y basis
    z = complex(np.vdot(chi, gauss_phase_encode(chi, a)))
    p_cos = (1.0 + z.real) / 2.0
    p_sin = (1.0 + z.imag) / 2.0

    rng = np.random.default_rng(seed)
    cos_hat = 2.0 * rng.binomial(shots, min(max(p_cos, 0.0), 1.0)) / shots - 1.0
    sin_hat = 2.0 * rng.binomial(shots, min(max(p_sin, 0.0), 1.0)) / shots - 1.0
    # atan2 gives -pi only for a -0.0 sine, and x - x is +0.0, so phi_hat is in (-pi, pi]
    phi_hat = math.atan2(sin_hat, cos_hat)

    halfwidth = math.asin(min(1.0, 2.0 * math.sqrt(2.0) * _CONFIDENCE_T(shots)))
    return PhaseEstimate(phi=phi_hat, samples=shots, epsilon=epsilon, ci_halfwidth=halfwidth)


def true_phase(k: int, a: int) -> float:
    """Reference phase arg(G(k, a)/sqrt(k)) from the brute-force sum."""
    import numpy as np

    return float(np.angle(gauss_sum_brute(k, a) / math.sqrt(k)))


def estimate_report(k: int, a: int, epsilon: float, seed: int = 0) -> dict:
    """JSON-ready record of one estimation run against the brute-force truth."""
    est = phase_estimate(k, a, epsilon, seed=seed)
    return {
        "k": k,
        "a": a,
        "phi_hat": est.phi,
        "phi_true": true_phase(k, a),
        "epsilon": epsilon,
        "samples": est.samples,
        "seed": seed,
    }
