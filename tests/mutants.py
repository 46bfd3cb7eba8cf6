"""Mutation gate: every mutant of the certifying code must fail a test.

Each mutant names a file under src/, the exact old text (which must occur
there exactly once), the new text, the test modules that must catch it,
and why the fault matters.  For each mutant the runner copies src/ to a
temporary directory, applies the mutant there and runs those modules
against the copy with ``pytest -x -q -p no:cacheprovider`` and the
hypothesis profile ``mutants`` (tests/conftest.py: no shrinking of a
failing example, which a kill does not need); the tree itself is never
written.  Mutants run side by side, one pytest process on each of up
to four CPUs.  A mutant is killed when pytest reports a failed test
(exit 1).  The runner exits 1 if those modules fail on src/ as it
is (such a failure would kill every mutant), if any mutant survives, if
its old text does not occur exactly once (a refactor moved the code:
update the mutant), or if pytest ends in any other way (a mutant that
breaks collection tests nothing).  Standard library only:

    python tests/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    file: str           # under src/
    old: str
    new: str
    tests: tuple        # modules under tests/, run in this order
    why: str


MUTANTS = (
    Mutant("pulseforge/scheme.py",
           "D = np.add(D, wA @ A.T, out=D) if c else wA @ A.T",
           "D = wA @ A.T",
           ("test_scheme.py",),
           "the Gram keeps only its last column chunk"),
    Mutant("pulseforge/scheme.py",
           "# no pair has a table that counts\n"
           "        return netham.PairHamiltonian._built(hmodel.n, hmodel.d, J, r)",
           "# no pair has a table that counts\n"
           "        return netham.PairHamiltonian._built(hmodel.n, hmodel.d, hmodel.J, r)",
           ("test_scheme.py",),
           "a scheme whose pair tables all vanish leaves J as it was"),
    Mutant("pulseforge/scheme.py",
           "range(0, n * m, strip)",
           "range(0, n * m, 2 * strip)",
           ("test_scheme.py",),
           "the mirror skips every other strip of J"),
    Mutant("pulseforge/scheme.py",
           "node += wA.sum(axis=1)",
           "node = wA.sum(axis=1)",
           ("test_scheme.py",),
           "the node tables come from the last column chunk only"),
    Mutant("pulseforge/scheme.py",
           "J[e:, e:e + strip] += J[e:e + strip, e:].T",
           "J[e + strip:, e:e + strip] += J[e:e + strip, e + strip:].T",
           ("test_scheme.py",),
           "the mirror leaves out the square of each strip on the diagonal"),
    Mutant("pulseforge/scheme.py",
           "(sch.times == sch.times[0]).all()",
           "(sch.times == sch.times[0]).any()",
           ("test_scheme.py",),
           "unequal times are averaged as equal ones"),
    Mutant("pulseforge/scheme.py",
           "residual = float(num / scale) if scale > 0",
           "residual = float(num) if scale > 0",
           ("test_scheme.py",),
           "the residual is no longer relative to the model's norm"),
    Mutant("pulseforge/scheme.py",
           "if not HJ.any():",
           "if not HJ[:, 0].any():",
           ("test_scheme.py",),
           "a chunk is skipped when its first pair's coupling block is zero"),
    Mutant("pulseforge/scheme.py",
           'np.triu(np.einsum("kalb,kalb->kl", D4, D4), 1)',
           'np.tril(np.einsum("kalb,kalb->kl", D4, D4), -1)',
           ("test_scheme.py",),
           "the walk takes the pairs l < k, below the diagonal"),
    Mutant("pulseforge/scheme.py",
           'np.einsum("kalb,kalb->kl", D4, D4)',
           'np.einsum("kalb,kalb->kl", D4[:, :1, :, :1], D4[:, :1, :, :1])',
           ("test_scheme.py",),
           "the liveness pass reads label 1 alone, so pairs whose table leaves it are dropped"),
    Mutant("pulseforge/scheme.py",
           "A.copy() if len(A) > A.shape[1] else A",
           "A[::-1].copy() if len(A) > A.shape[1] else A",
           ("test_scheme.py",),
           "the Gram's copy of a narrow chunk holds its rows in reverse order"),
    Mutant("pulseforge/scheme.py",
           "and _on_label_one(D4, C):",
           "and _on_label_one(D4[0, :, 1], C[0, 1]):",
           ("test_scheme.py",),
           "the blockwise exit reads the table of pair (0, 1) alone"),
    Mutant("pulseforge/scheme.py",
           "bool((R[0] == np.eye(len(R[0]))).all())",
           "True",
           ("test_scheme.py",),
           "the blockwise exit is taken where label 1 does not act as exactly I"),
    Mutant("pulseforge/scheme.py",
           "        J += 0.0\n",
           "",
           ("test_scheme.py",),
           "the blockwise exit leaves -0.0 where the walk leaves +0.0 in J"),
    Mutant("pulseforge/scheme.py",
           ".ravel() + 0.0",
           ".ravel()",
           ("test_scheme.py",),
           "the node tables' exit leaves -0.0 where the walk leaves +0.0 in r"),
    Mutant("pulseforge/scheme.py",
           "* C[:, None, :, None]\n        J += 0.0\n        J /= total",
           "* (C[:, None, :, None] / total)\n        J += 0.0",
           ("test_scheme.py",),
           "the blockwise exit divides by the total before it multiplies, rounding twice"),
    Mutant("pulseforge/cli.py",
           "except (ValueError, OSError) as e:",
           "except OSError as e:",
           ("test_cli.py",),
           "an input error escapes as a traceback and exit 1, not exit 2"),
    Mutant("pulseforge/designs.py",
           "pair = k + at[0] < l + at[1]",
           "pair = k + at[0] <= l + at[1]",
           ("test_designs.py",),
           "verify_oa counts a row as a pair of its own"),
    Mutant("pulseforge/designs.py",
           "for l in range(k, n, rows):",
           "for l in range(k + rows, n, rows):",
           ("test_designs.py",),
           "verify_oa skips the row pairs within one band"),
    Mutant("pulseforge/designs.py",
           " % u + u * np.arange(ds.n - k - 1)[:, None]",
           " % u",
           ("test_designs.py",),
           "verify_difference_scheme counts every row l > k in one set of bins"),
    Mutant("pulseforge/scheme.py",
           "_pauli_scheme(oa.entries[:, 1:], d, float(oa.N - 1))",
           "_pauli_scheme(oa.entries[:, :-1], d, float(oa.N - 1))",
           ("test_scheme.py",),
           "inversion drops the last column, not the all-identity column 0"),
    Mutant("pulseforge/gf.py",
           "% p).any(axis=1).all():",
           "% p).any(axis=1).any():",
           ("test_gf.py",),
           "a reducible modulus passes the zero-divisor test"),
    Mutant("pulseforge/signs.py",
           "Sx, Sy, Sz = _SIGN_ROWS.take(entries",
           "Sy, Sx, Sz = _SIGN_ROWS.take(entries",
           ("test_signs.py",),
           "the line partition loses its sigma_x / sigma_y swap"),
    Mutant("pulseforge/signs.py",
           "reshape((4,) * m).T.ravel()",
           "reshape((4,) * m).ravel()",
           ("test_designs.py",),
           "the line partition's columns are not digit-reversed"),
    Mutant("pulseforge/signs.py",
           "count = schur.size + pairs.size + unbalanced.size",
           "count = len(violations)",
           ("test_signs.py",),
           "verify_signs counts only the violations it lists"),
)


def run_modules(src: Path, modules) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                           "--hypothesis-profile=mutants", *(f"tests/{module}" for module in modules)],
                          cwd=ROOT, env=env, capture_output=True, text=True)


def run(mutant: Mutant) -> tuple[bool, str]:
    """(killed, the test that failed or what went wrong)."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = Path(tmp, "src")
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            return False, f"old text occurs {text.count(mutant.old)} times in {mutant.file}"
        path.write_text(text.replace(mutant.old, mutant.new))
        done = run_modules(src, mutant.tests)
    if done.returncode == 1:
        return True, next((line.split(" - ")[0] for line in done.stdout.splitlines()
                           if line.startswith("FAILED ")), "a test failed")
    if done.returncode == 0:
        return False, "survived: no test failed"
    return False, f"pytest exited {done.returncode}:\n{done.stdout[-2000:]}{done.stderr[-2000:]}"


def main() -> int:
    begin = time.perf_counter()
    modules = sorted({module for mutant in MUTANTS for module in mutant.tests})
    done = run_modules(ROOT / "src", modules)
    if done.returncode:
        print(f"{', '.join(modules)} fail on src/ as it is:\n{done.stdout[-2000:]}{done.stderr}")
        return 1
    def timed(mutant: Mutant) -> tuple[bool, str, float]:
        start = time.perf_counter()
        return (*run(mutant), time.perf_counter() - start)
    failed = 0
    with ThreadPoolExecutor(min(4, os.cpu_count() or 1)) as pool:
        for number, (mutant, (killed, detail, seconds)) in enumerate(
                zip(MUTANTS, pool.map(timed, MUTANTS)), 1):
            print(f"mutant {number:2d} ({mutant.why}): {'killed' if killed else 'NOT KILLED'}, "
                  f"{detail} [{seconds:.1f} s]", flush=True)
            failed += not killed
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed "
          f"in {time.perf_counter() - begin:.0f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
