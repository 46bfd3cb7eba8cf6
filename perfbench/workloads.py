"""The three workloads: their operation lists, inputs and output checks.

An operation is a short sequence of public pulseforge calls that a user
would make for one result.  Only those calls are timed (the operation's
latency); the check that follows runs inside the pass, so it counts
towards the pass time but not towards the latency.

Checks do not trust the library's own verdict:

* residuals are recomputed here against a dense Hamiltonian that this
  file assembles from the model's coefficients, relative to the norm of
  the model's own Hamiltonian (never ``max(1, ||target||)``);
* interval counts and time overheads are compared with the design laws;
* seed-free outputs (design, sign and pulse entries, CLI output files)
  are compared with sha256 digests recorded in ``expected.json``;
* seed-dependent values (bounds, weighted chromatic index) are compared
  with recorded values on the default seed and by their invariants on
  every seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from pulseforge import (bounds, cli, designs, error_basis, graphcolor,
                        harmonic, netham, scheme, signs)

RESIDUAL_TOL = 1e-9
VALUE_RTOL = 1e-9
DEFAULT_SEED = 0
CMD_TIMEOUT_S = 120
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@dataclass(frozen=True)
class Op:
    """One operation: `run(ctx)` is timed, `check(chk, ctx, out)` is not.

    `prepare(ctx)`, when given, runs untimed before `run`.  Tags:
    "decouple" and "invert" feed decouple_s and invert_s; "cert" marks a
    qudit certification (the base of netham.assemble_per_cert).
    """

    name: str
    run: Callable
    check: Callable
    tags: tuple = ()
    prepare: Callable | None = None


class Context:
    """Per-run state shared by the operations of a workload."""

    def __init__(self, seed: int, workdir: str, in_process: bool):
        self.seed = seed
        self.workdir = workdir
        self.in_process = in_process
        self.inputs = {}             # generated once per run from the seed
        self.outputs = {}            # earlier operations' results in this pass
        self.counters = {}           # per-pass counters reported by checks

    def sub_seed(self, name: str) -> int:
        """Seed of one operation's inputs, derived from the workload seed."""
        ss = np.random.SeedSequence([self.seed, zlib.crc32(name.encode())])
        return int(ss.generate_state(1)[0])

    def rng(self, name: str) -> np.random.Generator:
        return np.random.default_rng(self.sub_seed(name))

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def add(self, key: str, value):
        self.counters[key] = self.counters.get(key, 0) + value


class Checker:
    """Collects the problems found in one operation's output."""

    def __init__(self, expected: dict, workload: str, seed: int, record: dict | None = None):
        self.expected = expected
        self.workload = workload
        self.seed = seed
        self.record = record
        self.op = None
        self.problems = []

    def begin(self, op: str):
        self.op = op
        self.problems = []

    def require(self, cond, what: str):
        if not cond:
            self.problems.append(what)

    def residual(self, key: str, value: float):
        self.require(value <= RESIDUAL_TOL, f"{key} residual {value:.3g} > {RESIDUAL_TOL}")

    def digest(self, key: str, data):
        """Seed-free output: compare its sha256 with the recorded one."""
        if isinstance(data, np.ndarray):
            data = str(data.shape).encode() + np.ascontiguousarray(data, dtype="<i8").tobytes()
        got = hashlib.sha256(data).hexdigest()
        full = f"{self.workload}/{self.op}.{key}"
        if self.record is not None:
            self.record.setdefault("seed_free", {})[full] = got
        want = self.expected.get("seed_free", {}).get(full)
        self.require(got == want, f"{full} digest {got[:12]} != recorded {str(want)[:12]}")

    def value(self, key: str, got: float):
        """Seed-dependent value: compared only on the default seed."""
        if self.seed != DEFAULT_SEED:
            return
        full = f"{self.workload}/{self.op}.{key}"
        if self.record is not None:
            self.record.setdefault(f"seed_{DEFAULT_SEED}", {})[full] = got
        want = self.expected.get(f"seed_{DEFAULT_SEED}", {}).get(full)
        ok = want is not None and math.isclose(got, want, rel_tol=VALUE_RTOL)
        self.require(ok, f"{full} = {got!r}, recorded {want!r}")


# ---------------------------------------------------------------------------
# dense reference Hamiltonians, built without netham or harmonic

def _on_sites(op: np.ndarray, sites, n: int, d: int) -> np.ndarray:
    """op acting on the ascending `sites`, identity elsewhere, as d^n x d^n."""
    rest = [t for t in range(n) if t not in sites]
    full = np.kron(op, np.eye(d ** len(rest))).reshape((d,) * (2 * n))
    order = list(sites) + rest
    perm = [order.index(t) for t in range(n)]
    return full.transpose(perm + [n + p for p in perm]).reshape(d ** n, d ** n)


def _gell_mann(d: int) -> np.ndarray:
    """su(d) basis in the order netham documents: symmetric, antisymmetric, diagonal."""
    mats = []
    pairs = [(j, k) for j in range(d) for k in range(j + 1, d)]
    for j, k in pairs:
        m = np.zeros((d, d), dtype=complex)
        m[j, k] = m[k, j] = 1
        mats.append(m)
    for j, k in pairs:
        m = np.zeros((d, d), dtype=complex)
        m[j, k], m[k, j] = -1j, 1j
        mats.append(m)
    for l in range(1, d):
        diag = np.r_[np.ones(l), -l, np.zeros(d - l - 1)]
        mats.append(np.sqrt(2.0 / (l * (l + 1))) * np.diag(diag).astype(complex))
    return np.array(mats)


def qudit_hamiltonian(model, nodes=None) -> np.ndarray:
    """Dense H of a pair model; with `nodes`, only the terms inside that set."""
    n, d = model.n, model.d
    m = d * d - 1
    sig = _gell_mann(d)
    keep = set(range(n)) if nodes is None else set(nodes)
    H = np.zeros((d ** n, d ** n), dtype=complex)
    for k in sorted(keep):
        H += _on_sites(np.tensordot(model.r[k * m:(k + 1) * m], sig, 1), [k], n, d)
        for l in sorted(keep):
            if l > k:
                blk = model.J[k * m:(k + 1) * m, l * m:(l + 1) * m]
                pair = np.einsum("ab,aij,bkl->ikjl", 2.0 * blk, sig, sig)
                H += _on_sites(pair.reshape(d * d, d * d), [k, l], n, d)
    return H


def oscillator_hamiltonian(C: np.ndarray, d: int) -> np.ndarray:
    """Dense sum over ordered pairs of C[k,l] a_k a_l^dag on d levels per node."""
    n = C.shape[0]
    a = np.diag(np.sqrt(np.arange(1, d)), 1).astype(complex)
    H = np.zeros((d ** n, d ** n), dtype=complex)
    for k in range(n):
        for l in range(k + 1, n):
            pair = C[k, l] * np.kron(a, a.conj().T) + C[l, k] * np.kron(a.conj().T, a)
            H += _on_sites(pair, [k, l], n, d)
    return H


def relative_residual(avg: np.ndarray, overhead: float, target: np.ndarray,
                      H: np.ndarray) -> float:
    return float(np.linalg.norm(overhead * avg - target) / np.linalg.norm(H))


# ---------------------------------------------------------------------------
# seeded inputs, generated here so the program receives only data

def pair_model_doc(rng: np.random.Generator, n: int, d: int) -> dict:
    """Model JSON in netham's format: symmetric J with zero diagonal blocks."""
    m = d * d - 1
    J = np.zeros((m * n, m * n))
    for k in range(n):
        for l in range(k + 1, n):
            blk = rng.uniform(-1.0, 1.0, size=(m, m))
            J[k * m:(k + 1) * m, l * m:(l + 1) * m] = blk
            J[l * m:(l + 1) * m, k * m:(k + 1) * m] = blk.T
    return {"n": n, "d": d, "J": J.tolist(), "r": rng.uniform(-1.0, 1.0, m * n).tolist()}


def oscillator_doc(rng: np.random.Generator, n: int, d: int) -> dict:
    C = np.triu(rng.uniform(-1.0, 1.0, size=(n, n)), 1)
    return {"n": n, "d": d, "C": (C + C.T).tolist()}


def bipartite_graph_doc(rng: np.random.Generator, n: int = 6) -> dict:
    side = rng.permutation(n)
    left, right = sorted(side[:n // 2]), sorted(side[n // 2:])
    edges = [[int(u), int(v)] for u in left for v in right if rng.random() < 0.5]
    return {"n": n, "edges": edges or [[int(left[0]), int(right[0])]]}


# GF(4) = {0, 1, w, w^2} encoded 0..3: addition is XOR, multiplication below
_GF4_MUL = np.array([[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]])


def four_symbol_oa_doc(rng: np.random.Generator) -> dict:
    """OA(16, 5, 4, 2) of the affine plane over GF(4), seeded relabelling.

    Rows are y and x + m*y; permuting rows and columns and relabelling
    each row's symbols keeps strength 2.
    """
    x, y = np.divmod(np.arange(16), 4)
    rows = [y] + [x ^ _GF4_MUL[m][y] for m in range(4)]
    entries = np.array([rng.permutation(4)[r] + 1 for r in rows])
    entries = entries[rng.permutation(5)][:, rng.permutation(16)]
    return {"kind": "oa", "n": 5, "N": 16, "s": 4, "lambda": 1,
            "entries": entries.tolist()}


def ring_graph(n: int) -> graphcolor.InteractionGraph:
    return graphcolor.InteractionGraph(n, {(k, (k + 1) % n) for k in range(n)})


def fractional_target(rng: np.random.Generator, n: int = 30) -> np.ndarray:
    T = np.triu(rng.uniform(-1.0, 1.0, size=(n, n)), 1)
    return T + T.T


# ---------------------------------------------------------------------------
# certify: synthesize, build a seeded model, average it, check the residual

def _average_check(intervals: int, target, overhead=None):
    """Check of an averaged qudit model: N, pulse digest and the residual.

    `target(model, H)` gives the operator that overhead * average must
    equal; `overhead` defaults to 1 (decoupling and recoupling).
    """
    def check(chk, ctx, out):
        sch, model, avg = out
        chk.require(sch.N == intervals, f"N = {sch.N}, want {intervals}")
        if overhead is not None:
            chk.require(sch.target_overhead == overhead,
                        f"overhead {sch.target_overhead}, want N-1 = {overhead}")
        chk.digest("pulses", sch.pulses)
        H = qudit_hamiltonian(model)
        chk.residual("average", relative_residual(avg, overhead or 1.0, target(model, H), H))
    return check


def _zero(model, H):
    return np.zeros_like(H)


def _minus(model, H):
    return -H


def _certify(kind: str, n: int, d: int, intervals: int) -> Op:
    name = f"{kind}_{n}_{d}"

    def run(ctx):
        if kind == "decouple":
            sch = scheme.decoupling_scheme(n, d)
        else:
            sch = scheme.inversion_scheme(n, d)
        model = netham.random_model(n, d, ctx.sub_seed(name))
        return sch, model, scheme.average_hamiltonian(model, sch)

    if kind == "decouple":
        check = _average_check(intervals, _zero)
    else:
        check = _average_check(intervals, _minus, overhead=intervals)
    return Op(name, run, check, (kind, "cert"))


def _selective(ctx):
    sch = scheme.selective_scheme(8, 2, keep=[0, 3])
    model = netham.random_model(8, 2, ctx.sub_seed("selective_8_2"))
    return sch, model, scheme.average_hamiltonian(model, sch)


def _kept(model, H):
    return qudit_hamiltonian(model, nodes=[0, 3])


def _colored(ctx):
    g = ring_graph(8)
    sch = graphcolor.colored_decoupling_scheme(g, 2)
    full = netham.random_model(8, 2, ctx.sub_seed("colored_ring_8_2"))
    # same-colour nodes share pulses, so couplings may only sit on ring edges
    mask = np.zeros((8, 8))
    for u, v in g.edges:
        mask[u, v] = mask[v, u] = 1.0
    model = netham.PairHamiltonian(8, 2, full.J * np.kron(mask, np.ones((3, 3))), full.r)
    return sch, model, scheme.average_hamiltonian(model, sch)


def _product(ctx):
    oa = designs.product_oa(4, 9)
    basis = error_basis.generalized_pauli_basis(3)
    sch = scheme.PulseScheme(4, oa.N, np.full(oa.N, 1.0 / oa.N), oa.entries, [basis] * 4)
    model = netham.random_model(4, 3, ctx.sub_seed("product_4_3"))
    return sch, model, scheme.average_hamiltonian(model, sch)


def _fourier_inversion(ctx):
    net = harmonic.random_network(5, 4, ctx.sub_seed("harmonic_invert_5_4"))
    ps = harmonic.fourier_inversion(5)
    numeric, _ = harmonic.phase_average(net, ps)
    return ps, net, numeric


def _check_fourier(chk, ctx, out):
    ps, net, numeric = out
    chk.require(ps.N == 4, f"N = {ps.N}, want n-1 = 4")
    H = oscillator_hamiltonian(net.C, net.d)
    chk.residual("invert", relative_residual(numeric, 4.0, -H, H))


def _ds_decoupling(ctx):
    net = harmonic.random_network(6, 3, ctx.sub_seed("harmonic_decouple_6_3"))
    ds = designs.difference_scheme_for(6)
    numeric, _ = harmonic.phase_average(net, harmonic.ds_decoupling(net, ds))
    return ds, net, numeric


def _check_ds(chk, ctx, out):
    ds, net, numeric = out
    chk.require((ds.n, ds.N) == (6, 7), f"D({ds.n}, {ds.N}), want D(6, 7)")
    chk.digest("entries", ds.entries)
    H = oscillator_hamiltonian(net.C, net.d)
    chk.residual("decouple", relative_residual(numeric, 1.0, np.zeros_like(H), H))


def certify_ops() -> list:
    return [
        _certify("decouple", 8, 2, 64),
        _certify("decouple", 5, 3, 81),
        _certify("decouple", 4, 4, 256),
        _certify("invert", 8, 2, 63),
        _certify("invert", 4, 3, 80),
        _certify("invert", 3, 4, 255),
        Op("selective_8_2", _selective, _average_check(64, _kept), ("cert",)),
        Op("colored_ring_8_2", _colored, _average_check(16, _zero), ("cert",)),
        Op("product_4_3", _product, _average_check(6561, _zero), ("cert",)),
        Op("harmonic_invert_5_4", _fourier_inversion, _check_fourier),
        Op("harmonic_decouple_6_3", _ds_decoupling, _check_ds),
    ]


# ---------------------------------------------------------------------------
# synthesize: designs, sign triples, bounds and colourings; no Hilbert space

def _oa(s: int, i: int) -> Op:
    name = f"oa_{s}_{i}"
    n, N = (s ** i - 1) // (s - 1), s ** i

    def run(ctx):
        oa = designs.rao_hamming_oa(s, i)
        ctx.outputs[name] = oa
        return oa, designs.verify_oa(oa), designs.normalize_oa(oa)

    def check(chk, ctx, out):
        oa, rep, norm = out
        chk.require((oa.n, oa.N) == (n, N), f"OA shape {(oa.n, oa.N)}, want {(n, N)}")
        chk.require(rep["ok"], "verify_oa rejected the array")
        chk.require(bool((norm.entries[:, 0] == 1).all()), "normal form lost the identity column")
        chk.digest("entries", oa.entries)
        chk.digest("normalized", norm.entries)

    return Op(name, run, check, ("decouple",))


def _spread(ctx):
    st = signs.spread_signs(4)
    return st, signs.verify_signs(st), signs.signs_to_pulse_scheme(st)


def _oa_signs(ctx):
    st = signs.oa_to_signs(ctx.outputs["oa_4_4"])
    return st, signs.verify_signs(st), signs.signs_to_pulse_scheme(st)


def _check_signs(chk, ctx, out):
    st, rep, sch = out
    chk.require((st.n, st.N) == (85, 256), f"triple {(st.n, st.N)}, want (85, 256)")
    chk.require(rep["ok"], "verify_signs rejected the triple")
    chk.digest("signs", np.stack([st.Sx, st.Sy, st.Sz]))
    chk.digest("pulses", sch.pulses)


def _difference_scheme(ctx):
    ds = designs.cyclic_difference_scheme(251, 251)
    return ds, designs.verify_difference_scheme(ds)


def _check_difference_scheme(chk, ctx, out):
    ds, rep = out
    chk.require((ds.n, ds.N) == (251, 251), f"D({ds.n}, {ds.N}), want D(251, 251)")
    chk.require(rep["ok"], "verify_difference_scheme rejected the scheme")
    chk.digest("entries", ds.entries)


def check_bound_report(chk, rep: dict, J: np.ndarray, n: int):
    """Invariants of bound_report(-J, J) on every seed, values on the default one."""
    ev = np.linalg.eigvalsh(J)
    tau, inv, best = rep["tau_min"], rep["inversion_bound"], rep["rescaled_max"]
    chk.require(all(math.isfinite(v) for v in (tau, inv, best)), "non-finite bound")
    chk.require(math.isclose(inv, ev[-1] / -ev[0], rel_tol=VALUE_RTOL),
                f"inversion bound {inv!r} != r/-q = {ev[-1] / -ev[0]!r}")
    chk.require(0 < inv <= tau * (1 + VALUE_RTOL) and tau <= best * (1 + VALUE_RTOL),
                f"bounds out of order: {inv!r}, {tau!r}, {best!r}")
    S = np.asarray(rep["S_argmax"])
    chk.require(S.shape == (n, n) and np.array_equal(S, S.T) and np.all(np.abs(S) == 1),
                "S_argmax is not a symmetric +-1 matrix")
    for key in ("tau_min", "inversion_bound", "rescaled_max"):
        chk.value(key, float(rep[key]))


def _bound(ctx):
    J = ctx.inputs["bound_J"]
    return bounds.bound_report(-J, J, 12, trials=100, seed=ctx.sub_seed("bound_12_4"))


def _check_bound(chk, ctx, rep):
    check_bound_report(chk, rep, ctx.inputs["bound_J"], 12)


def chromatic_index_limits(T: np.ndarray) -> tuple:
    """Vizing: each level's chromatic index is its max degree D or D+1."""
    A = np.abs(T)
    lo = hi = prev = 0.0
    for t in np.unique(A[np.triu_indices(len(T), 1)]):
        if t > 0:
            delta = int((A > prev).sum(axis=1).max())
            lo += (t - prev) * delta
            hi += (t - prev) * (delta + 1)
            prev = t
    return lo, hi


def _chromatic(ctx):
    return graphcolor.weighted_chromatic_index(ctx.inputs["target_T"])


def _check_chromatic(chk, ctx, w):
    lo, hi = chromatic_index_limits(ctx.inputs["target_T"])
    chk.require(lo - 1e-9 <= w <= hi + 1e-9, f"W = {w!r} outside Vizing limits [{lo}, {hi}]")
    chk.value("W", float(w))


def synthesize_inputs(ctx):
    ctx.inputs["bound_J"] = np.array(pair_model_doc(ctx.rng("bound_12_4"), 12, 4)["J"])
    ctx.inputs["target_T"] = fractional_target(ctx.rng("chromatic_30"))


def synthesize_ops() -> list:
    return [
        _oa(9, 3), _oa(8, 3), _oa(3, 5), _oa(4, 4),
        Op("spread_signs_4", _spread, _check_signs, ("decouple",)),
        Op("oa_signs_4_4", _oa_signs, _check_signs, ("decouple",)),
        Op("difference_scheme_251", _difference_scheme, _check_difference_scheme, ("decouple",)),
        Op("bound_12_4", _bound, _check_bound, ("invert",)),
        Op("chromatic_30", _chromatic, _check_chromatic),
    ]


# ---------------------------------------------------------------------------
# cli: the README commands on files written from the seed

def _run_cli(ctx, argv: list) -> tuple:
    """(exit code, stdout) of one command: a child process, or main() in-process."""
    if ctx.in_process:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue()
    proc = subprocess.run([sys.executable, "-m", "pulseforge.cli", *argv],
                          capture_output=True, text=True, timeout=CMD_TIMEOUT_S,
                          cwd=ctx.workdir, env=dict(os.environ, PYTHONPATH=SRC))
    return proc.returncode, proc.stdout


def _command(name: str, args: list, code: int = 0, out: str | None = None,
             seeded: bool = False, extra=None, tags: tuple = (), prepare=None) -> Op:
    """A CLI operation.  "@f" in `args` is file f of the work directory.

    The check wants exit code `code`, a JSON report whose "ok" agrees
    with it, and, for `out`, a file whose digest matches the recording.
    """
    def argv(ctx):
        words = [ctx.path(a[1:]) if a.startswith("@") else a for a in args]
        if out:
            words += ["--out", ctx.path(out)]
        if seeded:
            words += ["--seed", str(ctx.sub_seed(name))]
        return words

    def run(ctx):
        return _run_cli(ctx, argv(ctx))

    def check(chk, ctx, result):
        got, text = result
        chk.require(got == code, f"exit code {got}, want {code}")
        report = json.loads(text)
        chk.require(bool(report["ok"]) == (code == 0), f"report ok = {report['ok']!r}")
        ctx.add("cli.json_bytes_in", sum(os.path.getsize(ctx.path(a[1:]))
                                          for a in args if a.startswith("@")))
        ctx.add("cli.json_bytes_out", len(text.encode()))
        if out:
            with open(ctx.path(out), "rb") as f:
                data = f.read()
            ctx.add("cli.json_bytes_out", len(data))
            chk.digest("file", data)
        if extra:
            extra(chk, ctx, report)

    return Op(name, run, check, tags, prepare)


def _report_is(**want):
    def check(chk, ctx, report):
        for key, value in want.items():
            chk.require(report.get(key) == value, f"{key} = {report.get(key)!r}, want {value!r}")
    return check


def _residual_ok(chk, ctx, report):
    for key, value in report["residuals"].items():
        chk.residual(key, value)


def _check_cli_bound(chk, ctx, report):
    with open(ctx.path("model12.json")) as f:
        J = np.array(json.load(f)["J"])
    check_bound_report(chk, report, J, 12)


def _tamper(ctx):
    """Copy the 81-interval scheme with one seeded pulse entry changed."""
    with open(ctx.path("scheme43.json")) as f:
        doc = json.load(f)
    rng = ctx.rng("tamper")
    k, j = int(rng.integers(doc["n"])), int(rng.integers(doc["N"]))
    old = doc["pulses"][k][j]
    doc["pulses"][k][j] = int(rng.choice([v for v in range(1, 10) if v != old]))
    with open(ctx.path("tampered.json"), "w") as f:
        json.dump(doc, f)


def cli_inputs(ctx):
    docs = {
        "graph.json": bipartite_graph_doc(ctx.rng("graph")),
        "model12.json": pair_model_doc(ctx.rng("model12"), 12, 4),
        "model43.json": pair_model_doc(ctx.rng("model43"), 4, 3),
        "model32.json": pair_model_doc(ctx.rng("model32"), 3, 2),
        "net4.json": oscillator_doc(ctx.rng("net4"), 4, 3),
        "oa.json": four_symbol_oa_doc(ctx.rng("oa")),
    }
    for name, doc in docs.items():
        with open(ctx.path(name), "w") as f:
            json.dump(doc, f)


def cli_ops() -> list:
    verify = ["verify", "--model"]
    return [
        _command("decouple_4_3", ["decouple", "--n", "4", "--d", "3"], out="scheme43.json",
                 seeded=True, extra=_report_is(intervals=81), tags=("decouple", "cert")),
        _command("decouple_graph", ["decouple", "--d", "2", "--graph", "@graph.json"],
                 seeded=True, extra=_report_is(intervals=16), tags=("decouple", "cert")),
        _command("decouple_8_2", ["decouple", "--n", "8", "--d", "2"], out="scheme82.json",
                 seeded=True, extra=_report_is(intervals=64), tags=("decouple", "cert")),
        _command("invert_3_2", ["invert", "--n", "3", "--d", "2"], out="invert32.json",
                 seeded=True, extra=_report_is(intervals=15, overhead=15.0),
                 tags=("invert", "cert")),
        _command("invert_harmonic_4", ["invert", "--harmonic", "--n", "4"], out="phases4.json",
                 seeded=True, extra=_report_is(intervals=3, overhead=3.0), tags=("invert",)),
        _command("bound_12_4", ["bound", "--model", "@model12.json", "--invert",
                                "--rescale-search", "100"], seeded=True, extra=_check_cli_bound),
        _command("verify_zero", verify + ["@model43.json", "--scheme", "@scheme43.json",
                                          "--target", "zero"], extra=_residual_ok,
                 tags=("decouple", "cert")),
        _command("verify_invert", verify + ["@model32.json", "--scheme", "@invert32.json",
                                            "--target", "invert"], extra=_residual_ok,
                 tags=("invert", "cert")),
        _command("verify_harmonic", verify + ["@net4.json", "--scheme", "@phases4.json",
                                              "--target", "invert", "--overhead", "3"],
                 extra=_residual_ok, tags=("invert",)),
        _command("verify_tampered", verify + ["@model43.json", "--scheme", "@tampered.json",
                                              "--target", "zero"], code=1,
                 tags=("decouple", "cert"), prepare=_tamper),
        _command("signs_2", ["signs", "--m", "2"], out="signs2.json", extra=_report_is(n=5, N=16)),
        _command("signs_4", ["signs", "--m", "4"], out="signs4.json",
                 extra=_report_is(n=85, N=256)),
        _command("signs_from_oa", ["signs", "--from-oa", "@oa.json"],
                 extra=_report_is(n=5, N=16, violations=[])),
    ]


# name -> (operation list, input writer, nominal pass seconds).  The nominal
# times are typical pass times at the commit that introduced the benchmark on a
# 2-vCPU Xeon with one BLAS thread; they fix how many passes a run makes
# (at 36 s: certify 3, synthesize 4, cli 7).
WORKLOADS = {
    "certify": (certify_ops, None, 14.0),
    "synthesize": (synthesize_ops, synthesize_inputs, 9.0),
    "cli": (cli_ops, cli_inputs, 5.0),
}
