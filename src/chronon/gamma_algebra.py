"""Dirac-representation matrices as coordinate operators on quantized spacetime.

In Compton units (hbar = c = m = 1).  The one home of the Dirac matrices: the
read-only ``BETA``, ``ALPHA``, ``GAMMA`` and ``SPIN``, built once at import and
read by every other layer.  ``verify_clifford`` checks the Clifford relations
in signature (+,-,-,-).  ``generators(kappa, kappa_t)`` reads the rotation and
boost generators from the brackets of the coordinates x_i = kappa*alpha_i and
t = kappa_t*beta, in units of the fundamental length a (a^2 cancels from every
bracket the generators and normalizations are read from).
``solve_normalization`` recovers kappa and kappa_t by least squares,
``spin_spectrum`` and ``spin_half_gap`` measure how far the angular part is from
spin one-half, and ``verify_lorentz_algebra`` checks closure.
``rotation_covariance_check`` tests ``free_hamiltonian`` for all (momentum,
axis) cases in one pass over stacked 4x4 arrays, each case through the
operations of a lone 4x4 in the same order, and takes all their norms in one
``frobenius`` call, so they are bit-identical to the one-case check.  Every
matrix here is of order one in Compton units, so ``frobenius`` is plain
``np.linalg.norm``.

Sign conventions fixed here (the source relations leave them open):

* The orbital rotation action about axis i on a momentum-space operator is
  L_i = i*(p_j d/dp_k - p_k d/dp_j) with (i, j, k) a cyclic triple; with
  this sign the orbital and spin actions on the free Dirac Hamiltonian
  cancel exactly.
* Boost generators are extracted as M_i = [t, x_i]/i and validated only by
  closure of the Lorentz algebra.
"""

from __future__ import annotations

import numpy as np

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = (PAULI_X, PAULI_Y, PAULI_Z)
I2 = np.eye(2, dtype=complex)


def _frozen(m: np.ndarray) -> np.ndarray:
    m.flags.writeable = False
    return m


# The Dirac representation itself: beta = diag(1,1,-1,-1), alpha_i with sigma_i in both
# off-diagonal blocks, gamma^i = beta alpha_i (a kron, not a matmul, so importing touches no
# BLAS buffers) and the spin matrices S_i = Sigma_i/2.
BETA = _frozen(np.kron(PAULI_Z, I2))
ALPHA = tuple(_frozen(np.kron(PAULI_X, s)) for s in PAULI)
GAMMA = (BETA,) + tuple(_frozen(np.kron(1j * PAULI_Y, s)) for s in PAULI)
SPIN = tuple(_frozen(0.5 * np.kron(I2, s)) for s in PAULI)


def is_hermitian(a: np.ndarray) -> bool:
    return np.linalg.norm(a - a.conj().T) <= 1e-12 * max(np.linalg.norm(a), 1.0)


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[A, B] = AB - BA."""
    return a @ b - b @ a


def frobenius(a: np.ndarray):
    """||A||_F of one matrix, or of each matrix of a stack over the last two axes."""
    return np.linalg.norm(a, axis=(-2, -1))


METRIC = np.diag([1.0, -1.0, -1.0, -1.0])

_CYCLIC = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def verify_clifford() -> float:
    """Max Frobenius residual of {gamma^mu, gamma^nu} = 2 eta^{mu nu} I over all pairs."""
    g = np.stack(GAMMA)  # anti[mu, nu] = g_mu g_nu + g_nu g_mu - 2 eta^{mu nu} I
    anti = g[:, None] @ g + g @ g[:, None] - 2 * METRIC[:, :, None, None] * np.eye(4)
    return float(frobenius(anti).max())


def generators(kappa: complex, kappa_t: complex):
    """(L, M) at x_i = kappa*alpha_i, t = kappa_t*beta: L_i = [x_j, x_k]/i over the cyclic
    triples, the rotation generators, and M_i = [t, x_i]/i, the boost generators."""
    x_hat, t_hat = tuple(kappa * a for a in ALPHA), kappa_t * BETA
    return (tuple((1 / 1j) * commutator(x_hat[j], x_hat[k]) for _, j, k in _CYCLIC),
            tuple((1 / 1j) * commutator(t_hat, x) for x in x_hat))


def verify_lorentz_algebra(J, K) -> float:
    """Max residual of the J/K closure relations with J = L, K = M.

    Checks the three cyclic [J,J] and [K,K] brackets plus all nine [J_i,K_j]
    brackets.  A fully vanishing generator set closes trivially, so a zero
    residual shows closure only for nonzero generators.
    """
    worst = 0.0
    for i, j, k in _CYCLIC:  # [J_i, K_j] = i eps_ijk K_k: +i K_k, -i K_k swapped, 0 at i = j
        worst = max(worst, frobenius(commutator(J[i], J[j]) - 1j * J[k]),
                    frobenius(commutator(K[i], K[j]) + 1j * J[k]),
                    frobenius(commutator(J[i], K[j]) - 1j * K[k]),
                    frobenius(commutator(J[j], K[i]) + 1j * K[k]),
                    frobenius(commutator(J[i], K[i])))
    return worst


def spin_spectrum(L) -> list[np.ndarray]:
    """Sorted eigenvalues of each L_i: real for a Hermitian L_i, complex for any other."""
    return [np.linalg.eigvalsh(l) if is_hermitian(l) else np.sort_complex(np.linalg.eigvals(l))
            for l in L]


def spin_half_gap(spectra) -> float:
    """The largest |eigenvalue - target| of the L_i against {-1/2 (x2), +1/2 (x2)}, or inf if a
    spectrum is complex: that of a non-Hermitian L_i is not spin one-half even at +-1/2."""
    target = np.array([-0.5, -0.5, 0.5, 0.5])
    return np.max([np.max(np.abs(v - target)) if np.isrealobj(v) else np.inf for v in spectra])


def _least_squares(brackets, targets) -> complex:
    """z minimizing sum_k ||z B_k - T_k||_F^2, or 0 when every B_k vanishes."""
    norm2 = sum(np.vdot(b, b).real for b in brackets)
    if not norm2:
        return 0j
    return complex(sum(np.vdot(b, t) for b, t in zip(brackets, targets)) / norm2)


def _root(z: complex) -> complex:
    """The square root of z with the larger real part, then the larger imaginary part."""
    r = complex(np.sqrt(z))
    return max(r, -r, key=lambda w: (w.real, w.imag))


def solve_normalization() -> tuple[complex, complex, float]:
    """Recover the coordinate normalizations by least squares on their squares.

    [x, y] = kappa^2 [alpha_x, alpha_y] must equal i S_z (in units of a, where
    a^2 has cancelled), so kappa^2 is the least-squares z of z [alpha_x, alpha_y]
    = i S_z.  At that kappa, K_i = kappa_t K1_i with K1 the boosts at
    kappa_t = 1, and kappa_t^2 is the least-squares z of z [K1_i, K1_j] =
    -i J_k over the cyclic triples.  The closed forms kappa = 1/2 and
    kappa_t = i/2 are not used.  Returns (kappa, kappa_t, residual), the
    residual being ||kappa^2 [alpha_x, alpha_y] - i S_z||_F; the closure at
    (kappa, kappa_t) is ``verify_lorentz_algebra`` of their ``generators``.
    """
    bracket = commutator(ALPHA[0], ALPHA[1])
    target = 1j * SPIN[2]
    kappa = _root(_least_squares([bracket], [target]))
    J, K1 = generators(kappa, 1.0)
    kappa_t = _root(_least_squares([commutator(K1[i], K1[j]) for i, j, _ in _CYCLIC],
                                   [-1j * J[k] for _, _, k in _CYCLIC]))
    return kappa, kappa_t, frobenius(kappa**2 * bracket - target)


def free_hamiltonian(p: np.ndarray) -> np.ndarray:
    """H(p) = alpha.p + beta for momenta of shape (..., 3): one 4x4 per momentum."""
    p = np.asarray(p, dtype=float)
    h = BETA
    for i in range(3):
        h = h + p[..., i, None, None] * ALPHA[i]
    return h


def rotation_covariance_check(momenta: np.ndarray) -> tuple[list[float], list[float]]:
    """Orbital vs orbital-plus-spin rotation action on the free Hamiltonian.

    For each row p of the (n, 3) ``momenta`` and each axis i, L_i H =
    i*(p_j alpha_k - p_k alpha_j) with (i, j, k) cyclic, in closed form
    from the linearity of H in p.  Returns (||L_i H||_F, ||L_i H + [H, S_i]||_F)
    as two lists in (row, axis) order; the second vanishes identically, showing
    the spin term is required whenever the first does not.
    """
    p = np.asarray(momenta, dtype=float)
    h, col = free_hamiltonian(p), p[:, :, None, None]
    orbital = np.stack([1j * (col[:, j] * ALPHA[k] - col[:, k] * ALPHA[j])
                        for _, j, k in _CYCLIC], axis=1)
    total = orbital + np.stack([commutator(h, s) for s in SPIN], axis=1)
    return tuple(frobenius(a).ravel().tolist() for a in (orbital, total))
