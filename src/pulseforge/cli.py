"""Command-line frontend: synthesize, bound and verify pulse schemes.

Every synthesis command but signs certifies its output against a
seeded random model before anything is written, so a file on disk is
always a verified scheme; signs draws nothing at random and writes
only a triple verify_signs passes.  Every request, qudit or oscillator
(d levels), is bounded by its (d^2-1) n coefficient dimension at
netham.HILBERT_CAP.  Exit codes: 0 success, 1 verification failure, 2
usage or input error.
"""

from __future__ import annotations

import gc

if __name__ == "__main__":
    gc.disable()        # before the imports below, numpy's above all; see script()

import argparse
import json
import os
import sys
import time

import numpy as np

from . import netham    # the size cap, models and loaders most commands use


def _env_seed() -> int:
    value = os.environ.get("PULSEFORGE_SEED", "0")
    if not value.strip().isdecimal():      # digits alone: no sign, so no negative seed
        raise ValueError(f"PULSEFORGE_SEED must be a non-negative integer, got {value!r}")
    return int(value)


def _digest(path: str) -> str:
    import hashlib
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()[:16]


def _load_json(path: str) -> dict:
    with open(path) as f:
        try:
            doc = json.load(f)
        except RecursionError:
            raise ValueError(f"{path} is nested too deeply to read") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path} must hold a JSON object, got {type(doc).__name__}")
    return doc


def _write_text(path: str, text: str):
    with open(path, "w") as f:
        f.write(text)


def _json_pieces(doc):
    """`json.dumps(doc, indent=2, sort_keys=True)` in pieces, for reports and files alike.

    With an indent the stdlib encodes in pure Python.  Here containers are
    laid out in Python, and each one that holds no container goes through
    one call of an encoder without an indent, which json takes in C when
    it can, its item separator carrying the newline and indent.  Keys must
    be str.
    """
    levels = []     # per depth: encoder for the items one level in, and their line start

    def level(depth: int):
        while len(levels) <= depth:
            inner = "\n" + "  " * (len(levels) + 1)
            levels.append((json.JSONEncoder(separators=("," + inner, ": "),
                                            sort_keys=True).encode, inner))
        return levels[depth]

    def flat(obj, depth: int) -> str | None:
        """The text of obj at this depth when it holds no container, else None."""
        encode, inner = level(depth)
        if not (isinstance(obj, (dict, list, tuple)) and obj):
            return encode(obj)         # a scalar, [] or {}
        types = set(map(type, obj.values() if isinstance(obj, dict) else obj))
        if any(issubclass(t, (dict, list, tuple)) for t in types):
            return None
        text = encode(obj)
        return text[0] + inner + text[1:-1] + inner[:-2] + text[-1]

    def pieces(obj, depth: int):
        text = flat(obj, depth)
        if text is not None:
            yield text
            return
        inner = level(depth)[1]
        is_dict = isinstance(obj, dict)
        sep = ("{" if is_dict else "[") + inner
        for item in (sorted(obj.items()) if is_dict else obj):
            if is_dict:
                key, item = item
                sep += json.encoder.encode_basestring_ascii(key) + ": "
            text = flat(item, depth + 1)
            if text is None:
                yield sep
                yield from pieces(item, depth + 1)
            else:
                yield sep + text
            sep = "," + inner
        yield inner[:-2] + ("}" if is_dict else "]")

    return pieces(doc, 0)


def _write_json(path: str, doc):
    with open(path, "w") as f:
        f.writelines(_json_pieces(doc))


def _emit(report: dict):
    sys.stdout.write("".join(_json_pieces(report)) + "\n")


class _Run:
    """Collects the run report while a command executes."""

    def __init__(self, args: argparse.Namespace, inputs: list[str]):
        self.t0 = time.perf_counter()
        self.report = {
            "command": args.command,
            "options": {k: v for k, v in vars(args).items()
                        if k not in ("func", "command") and v is not None},
            "inputs": {p: _digest(p) for p in inputs},
            "outputs": [],
            "residuals": {},
        }

    def finish(self, ok: bool) -> int:
        self.report["ok"] = bool(ok)
        self.report["wall_time"] = round(time.perf_counter() - self.t0, 6)
        _emit(self.report)
        return 0 if ok else 1


def _check_coefficients(n: int, d: int, pulses: bool = False):
    """Refuse, before any build, d < 2, (d^2-1) n above the cap and pulses on a d without su(d)."""
    # d = 1 or 0 makes the product 0 or negative, which passes the cap at any n
    if d < 2:
        raise ValueError(f"d must be at least 2, got {d}")
    if (d * d - 1) * n > netham.HILBERT_CAP:
        raise ValueError(f"coefficient dimension ({d}^2-1)*{n} exceeds {netham.HILBERT_CAP}")
    if pulses:
        netham.gell_mann_basis(d)       # its range check refuses d > 4


def _model_size(doc: dict) -> tuple[int, int]:
    """The n and d of a model or network file, read before anything of that size is built."""
    return tuple(netham.numbers(netham.json_field(doc, k), f"field {k!r}", 0, whole=True)
                 for k in "nd")


def _load_like(path: str, model, load):
    """A --target file, which must hold a model of the same n and d."""
    target = load(_load_json(path))
    if (target.n, target.d) != (model.n, model.d):
        raise ValueError(f"target {path} does not match the model's n and d")
    return target


def _write_and_finish(run: _Run, args, ok: bool, to_json, rows) -> int:
    """Write a certified result to --out, to_json() as JSON or the label rows
    rows() as CSV, record it, and finish the run; a failed one writes nothing."""
    if ok and args.out:
        if args.format == "csv":
            from . import designs
            _write_text(args.out, designs.entries_to_csv(rows()))
        else:
            _write_json(args.out, to_json())
        run.report["outputs"].append(args.out)
    return run.finish(ok)


def cmd_decouple(args) -> int:
    from . import scheme
    inputs = [args.graph] if args.graph else []
    run = _Run(args, inputs)
    g = None
    if args.graph:
        from . import graphcolor
        g = graphcolor.graph_from_json(_load_json(args.graph))
    _check_coefficients(g.n if g else args.n, args.d, pulses=True)
    if g:
        sch = graphcolor.colored_decoupling_scheme(g, args.d)
        # same-color nodes share pulses, so couplings must live on graph edges
        model = netham._seeded_model(g.n, args.d, args.seed, sorted(g.edges))
    else:
        sch = scheme.decoupling_scheme(args.n, args.d)
        model = netham.random_model(args.n, args.d, args.seed)
    rep = scheme.verify_scheme(model, sch, 0.0)
    run.report["intervals"] = sch.N
    run.report["residuals"]["decouple"] = rep["residual"]
    return _write_and_finish(run, args, rep["ok"], lambda: scheme.scheme_to_json(sch),
                             lambda: sch.pulses)


def cmd_invert(args) -> int:
    run = _Run(args, [])
    d = 3 if args.d is None else args.d     # only --harmonic may omit --d
    _check_coefficients(args.n, d, pulses=not args.harmonic)
    if args.harmonic:
        from . import harmonic
        if args.format == "csv":
            raise ValueError("phase schemes have complex entries; use json")
        sch = harmonic.fourier_inversion(args.n)
        net = harmonic.random_network(args.n, d, args.seed)
        overhead = float(args.n - 1)
        rep = harmonic.verify_phase_scheme(net, sch, -net.C, overhead)
        to_json = harmonic.phase_scheme_to_json
    else:
        from . import scheme
        sch = scheme.inversion_scheme(args.n, d)
        model = netham.random_model(args.n, d, args.seed)
        overhead = sch.target_overhead
        rep = scheme.verify_scheme(model, sch, -1.0)
        to_json = scheme.scheme_to_json
    run.report["intervals"] = sch.N
    run.report["overhead"] = overhead
    run.report["residuals"]["invert"] = rep["residual"]
    return _write_and_finish(run, args, rep["ok"], lambda: to_json(sch), lambda: sch.pulses)


def cmd_bound(args) -> int:
    from . import bounds
    run = _Run(args, [args.model])
    doc = _load_json(args.model)
    _check_coefficients(*_model_size(doc))
    model = netham.model_from_json(doc)
    J = model.J                     # built from the model's blocks, once
    trials = 1 if args.rescale_search is None else args.rescale_search
    rep = bounds.bound_report(-J if args.invert else J, J, model.n, trials=trials,
                              seed=args.seed)
    run.report.update(rep, target="-J" if args.invert else "J")     # what tau_min bounds
    return run.finish(True)


def cmd_verify(args) -> int:
    factor = {"zero": 0.0, "invert": -1.0}.get(args.target)
    run = _Run(args, [args.model, args.scheme] + ([args.target] if factor is None else []))
    sdoc, mdoc = _load_json(args.scheme), _load_json(args.model)
    if not {"phases", "pulses", "basis"} & sdoc.keys():     # only pulse schemes hold a basis
        raise ValueError(f"{args.scheme} is not a scheme file: it holds neither 'pulses' "
                         "nor 'phases'")
    _check_coefficients(*_model_size(mdoc), pulses="phases" not in sdoc)
    if "phases" in sdoc:
        from . import harmonic
        net = harmonic.network_from_json(mdoc)
        ps = harmonic.phase_scheme_from_json(sdoc)
        target = (factor * net.C if factor is not None
                  else _load_like(args.target, net, harmonic.network_from_json).C)
        overhead = args.overhead if args.overhead is not None else 1.0
        rep = harmonic.verify_phase_scheme(net, ps, target, overhead)
    else:
        from . import scheme
        model = netham.model_from_json(mdoc)
        sch = scheme.scheme_from_json(sdoc)
        target = (factor if factor is not None
                  else _load_like(args.target, model, netham.model_from_json))
        rep = scheme.verify_scheme(model, sch, target, overhead=args.overhead)
    run.report["residuals"]["verify"] = rep["residual"]
    return run.finish(rep["ok"])


def cmd_signs(args) -> int:
    from . import designs, signs
    inputs = [args.from_oa] if args.from_oa else []
    run = _Run(args, inputs)
    if args.m is not None:
        st = signs.spread_signs(args.m)
    else:
        design = designs.design_from_json(_load_json(args.from_oa))
        if not isinstance(design, designs.OrthogonalArray):
            raise ValueError("--from-oa expects an orthogonal-array file")
        _check_coefficients(design.n, 2)    # each array row is one qubit
        st = signs.oa_to_signs(design)
    rep = signs.verify_signs(st)
    run.report["n"] = st.n
    run.report["N"] = st.N
    run.report["violations"] = rep["violations"]
    run.report["residuals"]["sign_checks"] = float(rep["count"])
    return _write_and_finish(run, args, rep["ok"], lambda: signs.signs_to_json(st),
                             lambda: np.vstack([st.Sx, st.Sy, st.Sz]))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pulseforge",
        description="Design-based pulse schemes for coupled networks: "
                    "synthesis, overhead bounds and exact verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    seeded = argparse.ArgumentParser(add_help=False)     # verify and signs draw nothing at random
    seeded.add_argument("--seed", type=int,
                        help="seed for verification models and searches "
                             "(default: PULSEFORGE_SEED or 0)")

    writer = argparse.ArgumentParser(add_help=False)
    writer.add_argument("--out", help="write the certified scheme here")
    writer.add_argument("--format", choices=("json", "csv"))      # json when absent

    p = sub.add_parser("decouple", parents=[seeded, writer],
                       help="switch off all couplings and local terms")
    p.add_argument("--n", type=int, help="number of nodes")
    p.add_argument("--d", type=int, required=True, help="qudit dimension")
    p.add_argument("--graph", help="interaction graph JSON; enables the "
                                   "coloring reduction")
    p.set_defaults(func=cmd_decouple)

    p = sub.add_parser("invert", parents=[seeded, writer],
                       help="simulate the negated Hamiltonian")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, help="qudit dimension; with --harmonic, "
                                         "oscillator levels (default 3)")
    p.add_argument("--harmonic", action="store_true",
                   help="oscillator network phase scheme instead of pulses")
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("bound", parents=[seeded],
                       help="spectral lower bounds on time overhead")
    p.add_argument("--model", required=True, help="coupling model JSON")
    p.add_argument("--invert", action="store_true",
                   help="bound the overhead of simulating -H")
    p.add_argument("--rescale-search", type=int, metavar="K",
                   help="try K >= 0 random block rescalings for a sharper "
                        "bound (default 1)")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("verify",
                       help="check a scheme file against a model and target")
    p.add_argument("--model", required=True)
    p.add_argument("--scheme", required=True)
    p.add_argument("--target", required=True,
                   help="'zero', 'invert', or a model JSON file")
    p.add_argument("--overhead", type=float,
                   help="time overhead factor (default: a pulse scheme's own; a phase "
                        "scheme holds none, so 1)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("signs", parents=[writer],
                       help="sign-matrix triples for qubit networks")
    p.add_argument("--m", type=int, help="line-partition order")
    p.add_argument("--from-oa", help="convert a four-symbol array JSON")
    p.set_defaults(func=cmd_signs)
    return parser


def _check_flags(args) -> str | None:
    if args.command == "decouple" and bool(args.graph) == (args.n is not None):
        return "decouple needs exactly one of --n or --graph"
    if args.command == "invert" and not args.harmonic and args.d is None:
        return "invert needs --d unless --harmonic"
    if (getattr(args, "seed", None) or 0) < 0:
        return "--seed needs a non-negative integer"
    if args.command == "bound" and (args.rescale_search or 0) < 0:
        return "--rescale-search needs K >= 0"
    if args.command == "signs" and (args.m is None) == (args.from_oa is None):
        return "signs needs exactly one of --m or --from-oa"
    if getattr(args, "format", None) and not args.out:
        return "--format needs --out"
    return None


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else 0
    msg = _check_flags(args)
    if msg:
        print(f"usage error: {msg}", file=sys.stderr)
        return 2
    try:
        # read only now, so a bad value cannot fail --seed 1, and never by verify or signs
        if "seed" in vars(args) and args.seed is None:
            args.seed = _env_seed()
        return args.func(args)
    except (ValueError, OSError) as e:     # json.JSONDecodeError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return 2


def script():
    """The `pulseforge` command: main() in a process of its own.

    A command process lives for one request, and reference counting
    frees its arrays and reports; the cyclic collector would only walk
    the import-time objects of numpy and the stdlib.  So automatic
    collection is switched off, and once main() returns, stdout and
    stderr are flushed and the process ends at once, skipping interpreter
    teardown: every file main() wrote is closed by then.  An exception
    that escapes main() still propagates, to a traceback and exit code 1.
    main() called in-process leaves the collector as it found it.
    """
    gc.disable()
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    sys.exit(script())
