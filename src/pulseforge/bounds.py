"""Spectral lower bounds on simulation time overhead.

Whatever pulse sequence turns a coupling matrix J into an effective
Jtilde, the spectrum of Jtilde is majorized by the spectrum of tau*J
where tau is the total time overhead.  Reading that back gives a
certified lower bound: the smallest tau for which majorization can
hold at all.  These are necessary conditions only; nothing here claims
a scheme achieving the bound exists.

Each public call checks its inputs once, as they enter (_check_traceless(),
through _checked() for a pair); the bounds and every trial of a rescaled
search then run unchecked, in _tau().
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


def _check_traceless(M, name: str, n: int = 1) -> np.ndarray:
    """M as a float array, symmetric and traceless in each of its n diagonal blocks:
    a rescaling by S multiplies block k by S[k, k], so only then does every S keep it traceless."""
    M = netham._check_symmetric(M, name, 1e-10)
    if n < 1 or len(M) % n:
        raise ValueError(f"{n} blocks do not divide the size {len(M)} of {name}")
    traces = np.einsum("kaka->k", M.reshape(n, len(M) // n, n, len(M) // n))
    if np.abs(traces).max(initial=0.0) > 1e-8 * max(1.0, np.abs(M).max(initial=0.0)):
        raise ValueError(f"{name} must be traceless" if n == 1 else
                         f"a block rescaling needs traceless diagonal blocks in {name}")
    return M


def _checked(Jtilde, J, n: int = 1) -> tuple[np.ndarray | int, np.ndarray]:
    """The one check of a bound's inputs: (Jtilde, J), Jtilde its sign when it is
    exactly -J or +J; -J is tested first, so J = 0 reads as -J."""
    J = _check_traceless(J, "J", n)
    Jtilde = np.asarray(Jtilde, dtype=float)
    for sign in (-1, 1):
        if np.array_equal(Jtilde, sign * J):     # exactly as symmetric and traceless as J
            return sign, J
    Jtilde = _check_traceless(Jtilde, "Jtilde", n)
    if Jtilde.shape != J.shape:
        raise ValueError("matrices must have equal shape")
    return Jtilde, J


def _rescale_blocks(M: np.ndarray, S: np.ndarray) -> np.ndarray:
    # entry (k*m + a, l*m + b) times S[k, l]; negation commutes with it exactly
    n, m = len(S), len(M) // len(S)
    return (M.reshape(n, m, n, m) * S[:, None, :, None]).reshape(M.shape)


def _tau(Jtilde, J: np.ndarray, S=None) -> tuple[float, np.ndarray]:
    """tau_min of inputs from _checked(), both rescaled by S when it is given, and the
    descending spectrum y of J; a sign for Jtilde reads y or -y[::-1].  Checks nothing."""
    if S is not None:
        J = _rescale_blocks(J, S)
        Jtilde = Jtilde if np.ndim(Jtilde) == 0 else _rescale_blocks(Jtilde, S)
    y = np.linalg.eigvalsh(J)[::-1]
    x = np.linalg.eigvalsh(Jtilde)[::-1] if np.ndim(Jtilde) else y if Jtilde > 0 else -y[::-1]
    cx, cy = np.cumsum(x)[:-1], np.cumsum(y)[:-1]
    live = cy > TOL
    if np.any(cx[~live] > TOL):
        return float("inf"), y
    return float((cx[live] / cy[live]).max(initial=0.0)), y


def tau_min(Jtilde, J) -> float:
    """Smallest tau >= 0 with Spec(Jtilde) majorized by Spec(tau*J).

    Maximum over k < D of the prefix-sum ratios of the two descending
    spectra.  Degenerate prefixes (both sums ~ 0) are skipped; a
    vanishing denominator with positive numerator means no tau works
    and the result is inf.  For Jtilde = +-J the one spectrum y of J
    serves both sides: the descending spectrum of -J is -y[::-1].
    """
    return _tau(*_checked(Jtilde, J))[0]


def tau_min_rescaled(Jtilde, J, S) -> float:
    """tau_min after multiplying coupling block (k,l) of both sides by S[k,l];
    each diagonal block of Jtilde and J must be traceless."""
    S = netham._check_symmetric(S, "S")
    return _tau(*_checked(Jtilde, J, len(S)), S)[0]


def _search(Jtilde, J, n: int, trials: int, seed: int, best: float) -> tuple[float, np.ndarray]:
    # best is tau_min, the value of the all-ones S: rescaling by 1.0 is exact
    rng = np.random.default_rng(seed)
    best_S = np.ones((n, n))
    for _ in range(trials):
        S = np.where(rng.random((n, n)) < 0.5, -1.0, 1.0)
        S = np.triu(S) + np.triu(S, 1).T
        if (val := _tau(Jtilde, J, S)[0]) > best:
            best, best_S = val, S
    return best, best_S


def rescaled_search(Jtilde, J, n: int, trials: int = 100,
                    seed: int = SEARCH_SEED) -> tuple[float, np.ndarray]:
    """(best bound, its S) over random symmetric +-1 rescalings S; the all-ones S is
    tried first, and each diagonal block of Jtilde and J must be traceless."""
    Jtilde, J = _checked(Jtilde, J, n)
    return _search(Jtilde, J, n, trials, seed, _tau(Jtilde, J)[0])


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
    J = _check_traceless(J, "J")
    return _inversion_bound(J, np.linalg.eigvalsh(J)[::-1])


def bound_report(Jtilde, J, n: int, trials: int = 100,
                 seed: int = SEARCH_SEED) -> dict:
    """All bounds in one report; these floors are necessary, not achievable."""
    Jtilde, J = _checked(Jtilde, J, n)      # before any spectrum
    # one spectrum of J serves tau_min, the all-ones trial and the inversion bound
    plain, y = _tau(Jtilde, J)
    rescaled, S = _search(Jtilde, J, n, trials, seed, plain)
    return {
        "tau_min": plain,
        "inversion_bound": _inversion_bound(J, y),
        "rescaled_max": rescaled,
        "S_argmax": S.tolist(),
        "lower_bound": True,
    }
