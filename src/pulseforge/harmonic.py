"""Bilinearly coupled oscillator networks under local phase pulses.

A network of n oscillators couples through H_C = sum c_kl a_k a_l^dag.
Conjugating node k by exp(i h phi) multiplies a_k by e^{i phi}, so a
piecewise-constant phase scheme turns c_kl into c_kl times a weighted
inner product of the two phase rows: couplings vanish exactly when
rows are orthogonal.  Difference schemes (or plain Fourier rows)
supply orthogonal rows at zero time overhead; dropping the constant
Fourier column inverts the coupling at the provably optimal overhead
n-1.

Schemes are certified on coupling matrices: the terms a_k a_l^dag of
distinct ordered pairs are orthogonal and of equal norm, so residuals
of coupling matrices equal those of the d^n-dimensional Hamiltonians
for every truncation d.  The average itself is the coupling-matrix map
effective_coupling(); phase_average() realizes it once as a dense
Hamiltonian on the truncated Fock space.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import designs, graphcolor, netham, scheme

PHASE_TOL = 1e-12


@dataclass(eq=False)
class OscillatorNetwork:
    """n oscillators truncated to d levels, symmetric coupling matrix C."""

    n: int
    d: int
    C: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.C = np.asarray(self.C, dtype=float)
        if self.C.shape != (self.n, self.n):
            raise ValueError("C must be n x n")
        if np.abs(self.C - self.C.T).max(initial=0.0) > 1e-12:
            raise ValueError("C must be symmetric")
        if np.any(np.diag(self.C) != 0.0):
            raise ValueError("C must have zero diagonal")
        if self.d < 2:
            raise ValueError("need at least two levels")


@dataclass(eq=False)
class PhaseScheme:
    """n x N matrix of unit-modulus phase factors plus interval durations."""

    n: int
    N: int
    phases: np.ndarray = field(repr=False)
    times: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        self.phases = np.asarray(self.phases, dtype=complex)
        if self.phases.shape != (self.n, self.N):
            raise ValueError("phase matrix must be n x N")
        if not np.all(np.abs(np.abs(self.phases) - 1.0) <= PHASE_TOL):
            raise ValueError("phase entries must have modulus 1")
        if self.times is None:
            self.times = np.full(self.N, 1.0 / self.N)
        self.times = scheme.check_times(self.times, self.N)


def random_network(n: int, d: int, seed: int) -> OscillatorNetwork:
    rng = np.random.default_rng(seed)
    C = rng.uniform(-1.0, 1.0, size=(n, n))
    C = np.triu(C, 1)
    return OscillatorNetwork(n, d, C + C.T)


def lowering_operator(d: int) -> np.ndarray:
    """Truncated ladder: a|E> = sqrt(E)|E-1>."""
    a = np.zeros((d, d), dtype=complex)
    for E in range(1, d):
        a[E - 1, E] = np.sqrt(E)
    return a


def coupling_hamiltonian(C: np.ndarray, n: int, d: int) -> np.ndarray:
    """sum over ordered pairs of C[k,l] a_k a_l^dag on the truncated space.

    C may be complex Hermitian (effective couplings are); the result is
    Hermitian either way.  Each pair is embedded once as one d^2 x d^2
    operator, under netham.HILBERT_CAP.
    """
    a = lowering_operator(d)
    lower_raise = np.kron(a, a.conj().T)      # a_k a_l^dag for k < l
    raise_lower = np.kron(a.conj().T, a)      # a_l a_k^dag = a_k^dag a_l
    terms = (((k, l), C[k, l] * lower_raise + C[l, k] * raise_lower)
             for k in range(n) for l in range(k + 1, n)
             if C[k, l] != 0 or C[l, k] != 0)
    return netham.embed_terms(n, d, terms)


def effective_coupling(net_C: np.ndarray, ps: PhaseScheme) -> np.ndarray:
    """Couplings after averaging: c_kl picks up sum_j t_j m_kj conj(m_lj)."""
    factors = (ps.phases * ps.times) @ ps.phases.conj().T
    return np.asarray(net_C, dtype=complex) * factors


def phase_average(net: OscillatorNetwork, ps: PhaseScheme):
    """(averaged Hamiltonian, effective coupling matrix): the dense realization
    of effective_coupling, one coupling_hamiltonian build."""
    if ps.n != net.n:
        raise ValueError("scheme and network disagree on n")
    ceff = effective_coupling(net.C, ps)
    return coupling_hamiltonian(ceff, net.n, net.d), ceff


def verify_phase_scheme(net: OscillatorNetwork, ps: PhaseScheme, target: np.ndarray,
                        overhead: float) -> dict:
    """Frobenius residual of overhead*average against a target coupling matrix,
    relative to the network's; it equals the residual of the dense Hamiltonians,
    which have no diagonal terms, so a target with a nonzero diagonal is refused."""
    if ps.n != net.n:
        raise ValueError("scheme and network disagree on n")
    if np.shape(target) != (net.n, net.n):
        raise ValueError(f"target coupling matrix must be {net.n} x {net.n}")
    if np.any(np.diag(target) != 0):
        raise ValueError("target coupling matrix must have zero diagonal")
    scheme.check_overhead(overhead)
    diff = overhead * effective_coupling(net.C, ps) - target
    return scheme.residual_report(np.linalg.norm(diff), np.linalg.norm(net.C))


def ds_decoupling(net: OscillatorNetwork, ds: designs.DifferenceScheme) -> PhaseScheme:
    """Exponentiate a difference scheme: entry r becomes e^{2 pi i r/u}.

    Balanced row differences sum to zero around the unit circle, so all
    rows are pairwise orthogonal and every coupling is removed.
    """
    if ds.n < net.n:
        raise ValueError(f"need at least {net.n} rows, difference scheme has {ds.n}")
    phases = np.exp(2j * np.pi * ds.entries[:net.n] / ds.u)
    return PhaseScheme(net.n, ds.N, phases)


def fourier_phase_scheme(n: int, N: int | None = None) -> PhaseScheme:
    """Rows of the N-point Fourier matrix (default N = n).

    Rows k != l stay orthogonal for every n, prime or not; the caveat
    is that the pulse rotations crowd toward the identity as n grows.
    """
    if N is None:
        N = n
    if N < n:
        raise ValueError("need at least n columns")
    k = np.arange(n)[:, None]
    j = np.arange(N)[None, :]
    return PhaseScheme(n, N, np.exp(2j * np.pi * k * j / N))


def clique_recoupling(net: OscillatorNetwork, partition,
                      ds: designs.DifferenceScheme | None = None) -> PhaseScheme:
    """One orthogonal row per clique, broadcast to its members.

    Nodes sharing a row keep their mutual couplings exactly (factor 1);
    couplings across cliques see orthogonal rows and vanish.  Runs at
    zero time overhead.
    """
    seen = set()
    for clique in partition:
        for v in clique:
            if v in seen:
                raise ValueError(f"node {v} appears in two cliques")
            if not 0 <= v < net.n:
                raise ValueError(f"node {v} out of range")
            seen.add(v)
    if seen != set(range(net.n)):
        raise ValueError("partition must cover all nodes")
    nc = len(partition)
    if ds is not None:
        if ds.n < nc:
            raise ValueError(f"need {nc} difference-scheme rows, got {ds.n}")
        rows = np.exp(2j * np.pi * ds.entries[:nc] / ds.u)
        N = ds.N
    else:
        fs = fourier_phase_scheme(nc) if nc > 1 else PhaseScheme(1, 1, np.ones((1, 1)))
        rows, N = fs.phases, fs.N
    phases = np.empty((net.n, N), dtype=complex)
    for c, clique in enumerate(partition):
        for v in clique:
            phases[v] = rows[c]
    return PhaseScheme(net.n, N, phases)


def fourier_inversion(n: int) -> PhaseScheme:
    """Drop the constant Fourier column: n-1 intervals simulating -C.

    Row k has entries e^{2 pi i j k / n}, j = 1..n-1.  The Gram matrix
    is (n-1) on the diagonal and exactly -1 off it, so the effective
    coupling is -C/(n-1): time overhead n-1, which harmonic_j_matrix
    certifies as optimal.
    """
    if n < 2:
        raise ValueError("need at least two oscillators")
    k = np.arange(1, n + 1)[:, None]
    j = np.arange(1, n)[None, :]
    return PhaseScheme(n, n - 1, np.exp(2j * np.pi * j * k / n))


def harmonic_j_matrix(n: int, d: int) -> np.ndarray:
    """Coupling matrix of the oscillator network in quadrature coordinates.

    Per pair, a a^dag + a^dag a decomposes over the ladder-step
    operator pairs with rank-two coefficient block phi phi^T (+) psi
    psi^T, norm a = d(d-1)/2 each; embedding into d^2-1 sized blocks
    and tensoring with the all-ones-off-diagonal matrix gives a J whose
    inversion bound tau_min(-J, J) equals n-1.
    """
    if n < 2 or d < 2:
        raise ValueError("need n >= 2 and d >= 2")
    m = d * d - 1
    phi = np.zeros(m)
    psi = np.zeros(m)
    root = np.sqrt(np.arange(1, d))
    phi[:d - 1] = root
    psi[d - 1:2 * (d - 1)] = root
    A = np.outer(phi, phi) + np.outer(psi, psi)
    M = np.ones((n, n)) - np.eye(n)
    return np.kron(M, A)


# ---------------------------------------------------------------------------
# coupling synthesis from a target matrix T

def flip_rows(ps: PhaseScheme, nodes) -> PhaseScheme:
    """Negate the phase rows of the given nodes (modulus is preserved)."""
    phases = ps.phases.copy()
    for v in nodes:
        phases[v] = -phases[v]
    return PhaseScheme(ps.n, ps.N, phases, ps.times)


def _zero_diagonal(T: np.ndarray) -> np.ndarray:
    T = np.array(T, dtype=float)
    np.fill_diagonal(T, 0.0)
    return T


def gram_synthesis_report(T: np.ndarray) -> dict:
    """Bounds and (when possible) a schedule for reshaping C into T*C.

    lower: any scheme's weighted Gram matrix is positive semidefinite
    with diagonal equal to the overhead, so the overhead is at least
    |least eigenvalue of T| (clipped at zero).  upper/schedule: only
    for targets with entries 0 or +-1, where edge-coloring the support
    graph yields one matching per step; general fractional targets get
    bounds-only output.
    """
    T = _zero_diagonal(T)
    n = T.shape[0]
    if np.abs(T - T.T).max(initial=0.0) > 1e-12:
        raise ValueError("T must be symmetric")
    if np.abs(T).max(initial=0.0) > 1.0 + 1e-12:
        raise ValueError("entries of T must lie in [-1, 1]")
    lam_min = float(np.linalg.eigvalsh(T)[0])
    report = {
        "lower": max(0.0, -lam_min),
        "upper": None,
        "schedule": None,
        "constructive": False,
        "note": None,
    }
    mags = np.abs(T[np.triu_indices(n, 1)])
    zero_one = np.all((mags < 1e-12) | (np.abs(mags - 1.0) < 1e-12))
    if not zero_one:
        report["note"] = ("target has fractional couplings; only bounds are "
                          "reported, no constructive schedule is known")
        return report
    support = {(u, v) for u in range(n) for v in range(u + 1, n)
               if abs(T[u, v]) > 0.5}
    if not support:
        # simulating the zero Hamiltonian costs no simulated time at all
        report["upper"] = 0.0
        report["schedule"] = [{"duration": 0.0,
                               "cliques": [[v] for v in range(n)],
                               "flip": []}]
        report["note"] = "empty target: plain decoupling"
        report["constructive"] = True
        return report
    coloring = graphcolor.edge_coloring(graphcolor.InteractionGraph(n, support))
    schedule = []
    for c in range(coloring["count"]):
        matched = [e for e, col in coloring["colors"].items() if col == c]
        used = {v for e in matched for v in e}
        cliques = [list(e) for e in sorted(matched)]
        cliques += [[v] for v in range(n) if v not in used]
        flip = sorted(e[0] for e in matched if T[e[0], e[1]] < 0)
        schedule.append({"duration": 1.0, "cliques": cliques, "flip": flip})
    report["upper"] = graphcolor.weighted_chromatic_index(T)
    report["schedule"] = schedule
    report["constructive"] = True
    if not coloring["exact"]:
        report["note"] = "edge coloring is heuristic; upper bound may be loose"
    return report


def compose_schedule(net: OscillatorNetwork, schedule) -> dict:
    """Run the schedule steps and add up duration-weighted couplings.

    Returns the simulated coupling matrix (compare with T*C) and the
    total overhead sum of durations.
    """
    total = np.zeros((net.n, net.n), dtype=complex)
    overhead = 0.0
    for step in schedule:
        ps = clique_recoupling(net, step["cliques"])
        if step["flip"]:
            ps = flip_rows(ps, step["flip"])
        total += step["duration"] * effective_coupling(net.C, ps)
        overhead += step["duration"]
    return {"coupling": total, "overhead": overhead}


# ---------------------------------------------------------------------------
# serialization

def network_to_json(net: OscillatorNetwork) -> dict:
    return {"n": net.n, "d": net.d, "C": net.C.tolist()}


def network_from_json(doc: dict) -> OscillatorNetwork:
    return OscillatorNetwork(netham.json_int(doc, "n"), netham.json_int(doc, "d"),
                             netham.json_floats(doc, "C"))


def phase_scheme_to_json(ps: PhaseScheme) -> dict:
    return {
        "n": ps.n,
        "N": ps.N,
        "phases": [[{"re": float(z.real), "im": float(z.imag)} for z in row]
                   for row in ps.phases],
        "times": ps.times.tolist(),
    }


def _pair_from_json(z) -> list:
    if not (isinstance(z, dict) and "re" in z and "im" in z):
        raise ValueError(f"phase entries must be {{'re': x, 'im': y}}, got {z!r}")
    return [z["re"], z["im"]]


def phase_scheme_from_json(doc: dict) -> PhaseScheme:
    # read as an (n, N, 2) number array, so a bool or a non-finite part is refused
    pairs = netham.json_floats(
        {"phases": [[_pair_from_json(z) for z in row] for row in netham.json_rows(doc, "phases")]},
        "phases")
    if pairs.ndim != 3:
        raise ValueError("field 'phases' must hold at least one entry")
    return PhaseScheme(netham.json_int(doc, "n"), netham.json_int(doc, "N"),
                       pairs[..., 0] + 1j * pairs[..., 1], netham.json_floats(doc, "times"))
