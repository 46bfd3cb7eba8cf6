"""Spectral lower bounds on simulation time overhead.

Whatever pulse sequence turns a coupling matrix J into an effective
Jtilde, the spectrum of Jtilde is majorized by the spectrum of tau*J
where tau is the total time overhead.  Reading that back gives a
certified lower bound: the smallest tau for which majorization can
hold at all.  These are necessary conditions only; nothing here claims
a scheme achieving the bound exists.
"""

from __future__ import annotations

import numpy as np

from . import netham

TOL = 1e-9
SEARCH_SEED = 0xC0FFEE


def majorizes(x, y, tol: float = TOL) -> bool:
    """True when x is majorized by y: prefix sums of x below y, totals equal."""
    x = np.sort(np.asarray(x, dtype=float))[::-1]
    y = np.sort(np.asarray(y, dtype=float))[::-1]
    if x.shape != y.shape:
        raise ValueError("vectors must have equal length")
    cx, cy = np.cumsum(x), np.cumsum(y)
    if np.any(cx[:-1] > cy[:-1] + tol):
        return False
    return abs(cx[-1] - cy[-1]) <= tol


def _check_traceless_symmetric(M, name: str):
    M = netham._check_symmetric(M, name, 1e-10)
    if abs(np.trace(M)) > 1e-8 * max(1.0, np.abs(M).max(initial=0.0)):
        raise ValueError(f"{name} must be traceless")
    return M


def _tau_min_and_spectrum(Jtilde, J) -> tuple[float, np.ndarray]:
    """tau_min(Jtilde, J) and the descending spectrum of J it used."""
    J = _check_traceless_symmetric(J, "J")
    Jtilde = np.asarray(Jtilde, dtype=float)
    y = np.linalg.eigvalsh(J)[::-1]
    # -J is exactly as symmetric and traceless as J, so only another target is checked
    if np.array_equal(Jtilde, -J):
        x = -y[::-1]
    else:
        Jtilde = _check_traceless_symmetric(Jtilde, "Jtilde")
        if Jtilde.shape != J.shape:
            raise ValueError("matrices must have equal shape")
        x = np.linalg.eigvalsh(Jtilde)[::-1]
    cx, cy = np.cumsum(x)[:-1], np.cumsum(y)[:-1]
    degenerate = cy <= TOL
    if np.any(cx[degenerate] > TOL):
        return float("inf"), y
    live = ~degenerate
    return float((cx[live] / cy[live]).max(initial=0.0)), y


def tau_min(Jtilde, J) -> float:
    """Smallest tau >= 0 with Spec(Jtilde) majorized by Spec(tau*J).

    Maximum over k < D of the prefix-sum ratios of the two descending
    spectra.  Degenerate prefixes (both sums ~ 0) are skipped; a
    vanishing denominator with positive numerator means no tau works
    and the result is inf.  For Jtilde = -J the one spectrum of J
    serves both sides: the descending spectrum of -J is -y[::-1].
    """
    return _tau_min_and_spectrum(Jtilde, J)[0]


def _rescale_blocks(M: np.ndarray, S: np.ndarray) -> np.ndarray:
    # entry (k*m + a, l*m + b) times S[k, l]; negation commutes with it exactly
    n = S.shape[0]
    m = M.shape[0] // n
    return (M.reshape(n, m, n, m) * S[:, None, :, None]).reshape(M.shape)


def tau_min_rescaled(Jtilde, J, S) -> float:
    """tau_min after multiplying coupling block (k,l) of both sides by S[k,l]."""
    S = netham._check_symmetric(S, "S")
    Jtilde = np.asarray(Jtilde, dtype=float)
    J = np.asarray(J, dtype=float)
    if Jtilde.shape != J.shape:
        raise ValueError("matrices must have equal shape")
    if J.shape[0] % S.shape[0]:
        raise ValueError("S size must divide the matrix size")
    return tau_min(_rescale_blocks(Jtilde, S), _rescale_blocks(J, S))


def _check_blocks_traceless(n: int, **mats):
    # a +-1 rescaling flips whole diagonal blocks: every S keeps M traceless iff each block is
    for name, M in mats.items():
        M = np.asarray(M, dtype=float)
        traces = np.einsum("kaka->k", M.reshape(n, len(M) // n, n, len(M) // n))
        if np.abs(traces).max() > 1e-8 * max(1.0, M.max(initial=0.0), -M.min(initial=0.0)):
            raise ValueError(f"the rescaled search needs traceless diagonal blocks in {name}")


def rescaled_search(Jtilde, J, n: int, trials: int = 100,
                    seed: int = SEARCH_SEED, start: float | None = None
                    ) -> tuple[float, np.ndarray]:
    """Best rescaled bound over random symmetric +-1 matrices S.

    The all-ones S is always tried first, so the result is never worse
    than the plain tau_min; a caller that has tau_min(Jtilde, J) passes
    it as `start`, which is that trial's value (rescaling by 1.0 is
    exact).  Each diagonal block of Jtilde and J must be traceless, so
    that every S keeps both traceless.  Returns (bound, argmax S).
    """
    _check_blocks_traceless(n, Jtilde=Jtilde, J=J)
    rng = np.random.default_rng(seed)
    best_S = np.ones((n, n))
    best = tau_min_rescaled(Jtilde, J, best_S) if start is None else start
    for _ in range(trials):
        S = np.where(rng.random((n, n)) < 0.5, -1.0, 1.0)
        S = np.triu(S) + np.triu(S, 1).T
        val = tau_min_rescaled(Jtilde, J, S)
        if val > best:
            best, best_S = val, S
    return best, best_S


def _inversion_bound(J: np.ndarray, y: np.ndarray) -> float:
    if np.abs(J).max(initial=0.0) == 0.0:
        raise ValueError("J must be nonzero")
    return float(y[0] / -y[-1])


def inversion_lower_bound(J) -> float:
    """Overhead floor for simulating -H from H: r/(-q).

    r and q are the extreme eigenvalues of the coupling matrix; q < 0
    whenever J is traceless and nonzero.  Equals the last prefix-sum
    ratio of tau_min(-J, J), hence never exceeds it.
    """
    J = _check_traceless_symmetric(J, "J")
    return _inversion_bound(J, np.linalg.eigvalsh(J)[::-1])


def bound_report(Jtilde, J, n: int, trials: int = 100,
                 seed: int = SEARCH_SEED) -> dict:
    """All bounds in one report; these floors are necessary, not achievable."""
    _check_blocks_traceless(n, Jtilde=Jtilde, J=J)     # before any spectrum
    # one spectrum of J serves tau_min, the all-ones trial and the inversion bound
    plain, y = _tau_min_and_spectrum(Jtilde, J)
    rescaled, S = rescaled_search(Jtilde, J, n, trials=trials, seed=seed, start=plain)
    return {
        "tau_min": plain,
        "inversion_bound": _inversion_bound(np.asarray(J, dtype=float), y),
        "rescaled_max": rescaled,
        "S_argmax": S.tolist(),
        "lower_bound": True,
    }
