"""Dense Hilbert-space references that the coefficient-space engines are tested against.

Each works on the d^n-dimensional matrices directly, by a route that
shares no averaging code with the library: conjugation by the interval
unitaries for pulse schemes, an elementwise weight matrix for phase
schemes, and full spectra for majorization.  The all-to-all model that
several tests certify against closed forms is built here too.
"""

import numpy as np

from pulseforge import bounds, harmonic, netham


def complete_coupling_model(n: int, d: int, alpha: int, coeff: float = 1.0,
                            with_local: bool = False) -> netham.PairHamiltonian:
    """All-to-all network coupling component alpha to itself on every pair."""
    m = d * d - 1
    if not 0 <= alpha < m:
        raise ValueError("alpha out of range")
    J = np.zeros((m * n, m * n))
    for k in range(n):
        for l in range(n):
            if k != l:
                J[k * m + alpha, l * m + alpha] = coeff
    r = np.zeros(m * n)
    if with_local:
        r[alpha::m] = coeff
    return netham.PairHamiltonian(n, d, J, r)


def _interval_unitary(sch, j: int) -> np.ndarray:
    U = np.eye(1, dtype=complex)
    for k in range(sch.n):
        U = np.kron(U, sch.bases[k].elements[sch.pulses[k, j] - 1])
    return U


def conjugation_average(H: np.ndarray, sch) -> np.ndarray:
    """sum_j times[j] U_j^dag H U_j for an explicit operator H.

    Works for mixed node dimensions and any operator, at two d^n
    products per interval.
    """
    dim = int(np.prod(sch.dims))
    H = np.asarray(H, dtype=complex)
    if H.shape != (dim, dim):
        raise ValueError(f"H must be {dim}x{dim} for this scheme")
    acc = np.zeros_like(H)
    for j in range(sch.N):
        U = _interval_unitary(sch, j)
        acc += sch.times[j] * (U.conj().T @ H @ U)
    return acc


def phase_weights(ps, d: int) -> np.ndarray:
    """F[x, y] = sum_j t_j conj(u_j[x]) u_j[y], u_j the diagonal of interval j's unitary.

    Interval j conjugates by the diagonal U_j = diag(u_j), which scales
    entry (x, y) of any operator by conj(u_j[x]) u_j[y]; the average is
    therefore the elementwise product with F.
    """
    levels = np.arange(d)
    u = np.ones((1, ps.N), dtype=complex)
    for k in range(ps.n):
        u = (u[:, None, :] * ps.phases[k] ** levels[:, None]).reshape(-1, ps.N)
    return (u.conj() * ps.times) @ u.T


def phase_average(net, ps) -> np.ndarray:
    """The network's dense Hamiltonian averaged under the phase scheme."""
    return harmonic.coupling_hamiltonian(net.C, net.n, net.d) * phase_weights(ps, net.d)


def spectral_check_hamiltonian(Htilde, H, tau: float, tol: float = 1e-8) -> bool:
    """Spec(Htilde) majorized by tau * Spec(H), on the dense Hamiltonians."""
    return bounds.majorizes(np.linalg.eigvalsh(Htilde), tau * np.linalg.eigvalsh(H), tol=tol)
