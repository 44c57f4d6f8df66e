"""Command-line front end: compile, spectrum, solve, compare.

Every JSON output embeds a manifest of the resolved parameters, so a run
can be reproduced from its output alone.  Plot data is emitted as CSV;
no images are rendered.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from importlib import resources

from . import __version__
from .circuit import bind, build_ansatz
from .engine import (
    DEFAULT_SHOTS,
    Distribution,
    NoiseModel,
    noise_record,
    simulate_noisy,
)
from .errors import HamqaoaError, MalformedInput, TooManyQubits
from .graph import parse_graph
from .hamiltonian import (
    SIMULATOR_QUBIT_CAP,
    SPECTRUM_QUBIT_CAP,
    DiagonalHamiltonian,
    full_spectrum,
)
from .optimizer import OptimizerConfig, qaoa_solve
from .qubo import IsingModel, assemble, from_term_list, strip_constant, to_ising, to_term_list

EXIT_INPUT_ERROR = 2
EXIT_RESOURCE_CAP = 3
_MIXER = dict(type=str.upper, choices=("RX", "RY"))  # read in either case, kept upper case


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise MalformedInput(f"cannot read {path}: {exc}") from exc


def _write(text: str, path: str | None) -> None:
    """Write text and a newline to path, or print it when no path is given."""
    if not path:
        print(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise MalformedInput(f"cannot write {path}: {exc}") from exc


def _check_outputs(args) -> None:
    """Refuse an output path that names a directory or lies in a missing
    one before the command does any work; ``_write`` still reports what
    this cannot see, such as permissions or a full disk."""
    for name in ("out", "csv", "trace_csv"):
        path = getattr(args, name, None)
        if not path:
            continue
        if os.path.isdir(path):
            raise MalformedInput(f"cannot write {path}: it is a directory")
        folder = os.path.dirname(path) or "."
        if not os.path.isdir(folder):
            raise MalformedInput(f"cannot write {path}: no directory {folder}")


def parse_noise(spec: str) -> NoiseModel:
    """Parse 'p1=0.001,p2=0.01,ro=0.01' into a NoiseModel; each component
    at most once, in [0, 1], and 0 where absent."""
    keys = ("p1", "p2", "ro")  # NoiseModel's fields, in order
    values: dict[str, float] = {}
    for part in spec.split(","):
        if not part:
            continue
        key, _, val = part.partition("=")
        if key not in keys or not val:
            raise MalformedInput(f"bad noise component {part!r}")
        if key in values:
            raise MalformedInput(f"noise component {key!r} given twice")
        try:
            value = float(val)
        except ValueError as exc:
            raise MalformedInput(f"bad noise value {part!r}") from exc
        if not 0.0 <= value <= 1.0:
            raise MalformedInput(f"{key} must be in [0, 1], got {value}")
        values[key] = value
    return NoiseModel(*(values.get(k, 0.0) for k in keys))


def _finite(flag: str, value: float | None) -> float | None:
    if value is not None and not math.isfinite(value):
        raise MalformedInput(f"{flag} must be a finite number, got {value}")
    return value


def _check_float_range(model: IsingModel) -> None:
    """Refuse a model whose exact coefficients do not convert to floats, or
    whose energies or gap may not: every energy lies within B = |constant|
    + sum |coeff|, so every difference of two energies within 2B."""
    bound = 0.0
    for c in (model.constant, *model.linear.values(), *model.quadratic.values()):
        try:
            bound += abs(float(c))
        except OverflowError as exc:
            raise MalformedInput("a coefficient exceeds the float range") from exc
    if not math.isfinite(2 * bound):
        raise MalformedInput("the energy spread may exceed the float range")


def _compile_graph(path: str, weight: float, cap: int | None = None) -> IsingModel:
    """Compile a graph file; refuse one that needs more than cap qubits
    before compiling it, as compiling grows about as n^4."""
    g = parse_graph(_read(path))
    if cap is not None and g.num_qubits > cap:
        raise TooManyQubits(f"{g.num_qubits} qubits exceeds the cap {cap}")
    return to_ising(assemble(g, _finite("--weight", weight)), g.n)


def load_terms(text: str) -> IsingModel:
    """Load a term-list file: either a bare list or an object with 'terms'."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"invalid JSON: {exc}") from exc
    constant = 0
    num_qubits = None
    if isinstance(obj, dict):
        constant = obj.get("constant", 0)
        num_qubits = obj.get("num_qubits")
        entries = obj.get("terms")
    else:
        entries = obj
    if not isinstance(entries, list):
        raise MalformedInput("expected a term list")
    pairs = []
    for e in entries:
        if not isinstance(e, dict) or "pauli" not in e or "coeff" not in e:
            raise MalformedInput(f"bad term entry {e!r}")
        pairs.append((e["pauli"], e["coeff"]))
    try:
        return from_term_list(pairs, num_qubits=num_qubits, constant=constant)
    except HamqaoaError:
        raise
    except Exception as exc:
        raise MalformedInput(str(exc)) from exc


def reference_square_model() -> IsingModel:
    """The versioned 31-term square fixture shipped with the package."""
    text = resources.files("hamqaoa.data").joinpath("square_reference.json").read_text()
    return load_terms(text)


def _model_from_args(args, cap: int) -> tuple[IsingModel, dict]:
    source: dict
    if args.terms:
        model = load_terms(_read(args.terms))
        source = {"terms": args.terms}
    elif args.graph:
        model = _compile_graph(args.graph, args.weight, cap)
        source = {"graph": args.graph, "weight": args.weight}
    else:
        raise MalformedInput("need --graph or --terms")
    rescale = _finite("--rescale", args.rescale)
    if args.drop_constant or rescale is not None:
        model = strip_constant(model, rescale if rescale is not None else 1)
        source["drop_constant"] = True
        if rescale is not None:
            source["rescale"] = rescale
    _check_float_range(model)
    return model, source


def _manifest(command: str, **params) -> dict:
    return {"command": command, "version": __version__, **params}


def _dist_csv(dist: Distribution) -> str:
    lines = ["bitstring,count,probability"]
    for bits, c in sorted(dist.counts.items()):
        lines.append(f"{bits},{c},{c / dist.shots:.6f}")
    return "\n".join(lines)


def cmd_compile(args) -> int:
    model = _compile_graph(args.graph, args.weight)
    if args.drop_constant:
        model = strip_constant(model)
    _check_float_range(model)
    terms = [{"pauli": s, "coeff": float(c)} for s, c in to_term_list(model)]
    obj = {
        "num_qubits": model.num_qubits,
        "terms": terms,
        "manifest": _manifest(
            "compile",
            graph=args.graph,
            weight=args.weight,
            drop_constant=args.drop_constant,
            keep_constant=args.keep_constant,
        ),
    }
    if args.keep_constant:
        obj["terms"].insert(
            0, {"pauli": "I" * model.num_qubits, "coeff": float(model.constant)}
        )
    elif not args.drop_constant:
        obj["constant"] = float(model.constant)
    _write(json.dumps(obj, indent=2), args.out)
    return 0


def cmd_spectrum(args) -> int:
    model, source = _model_from_args(args, SPECTRUM_QUBIT_CAP)
    spec = full_spectrum(DiagonalHamiltonian.from_ising(model))
    obj = {
        "ground_energy": spec.ground_energy,
        "ground_states": sorted(spec.ground_states),
        "gap": spec.gap,
        "levels": [
            {"energy": e, "states": sorted(states)} for e, states in spec.levels
        ],
        "manifest": _manifest("spectrum", **source),
    }
    _write(json.dumps(obj, indent=2), args.out)
    if args.csv:
        lines = ["energy,bitstring"]
        for e, states in spec.levels:
            lines.extend(f"{e},{s}" for s in sorted(states))
        _write("\n".join(lines), args.csv)
    return 0


def _solve_from_args(args, model, source, mixer, nm=None):
    cfg = OptimizerConfig(
        max_evals=args.max_evals, restarts=args.restarts, seed=args.seed
    )
    manifest = _manifest(
        "solve",
        **source,
        p=args.p,
        mixer=mixer,
        shots=args.shots,
        seed=args.seed,
        restarts=args.restarts,
        max_evals=args.max_evals,
        noise=noise_record(nm),
        sampled_objective=args.sampled_objective,
    )
    return qaoa_solve(
        model,
        args.p,
        mixer,
        nm=nm,
        cfg=cfg,
        shots=args.shots,
        sampled_objective=args.sampled_objective,
        manifest=manifest,
    )


def cmd_solve(args) -> int:
    nm = parse_noise(args.noise) if args.noise else None
    model, source = _model_from_args(args, SIMULATOR_QUBIT_CAP)
    report = _solve_from_args(args, model, source, args.mixer, nm)
    _write(report.to_json(), args.out)
    if args.csv:
        _write(_dist_csv(report.final_distribution), args.csv)
    if args.trace_csv:
        lines = ["eval,value"] + [
            f"{i},{v}" for i, v in report.optimization.trace
        ]
        _write("\n".join(lines), args.trace_csv)
    return 0


def _merged_csv(arms) -> str:
    """Both arms' counts per bitstring; arms are two (label, distribution)."""
    (label_a, dist_a), (label_b, dist_b) = arms
    counts_a, counts_b = dict(dist_a.counts.items()), dict(dist_b.counts.items())
    lines = [f"bitstring,count_{label_a},count_{label_b}"]
    for bits in sorted(counts_a.keys() | counts_b.keys()):
        lines.append(f"{bits},{counts_a.get(bits, 0)},{counts_b.get(bits, 0)}")
    return "\n".join(lines)


# The compare flags that only one axis reads, with their defaults.
_AXIS_FLAGS = {
    "mixer": {"mixer_a": "RX", "mixer_b": "RY"},
    "noise": {"mixer": "RX", "noise": None},
}


def _resolve_axis_flags(args) -> None:
    """Refuse a compare flag that the chosen axis ignores, and give the
    flags it reads their defaults."""
    for axis, flags in _AXIS_FLAGS.items():
        for name, default in flags.items():
            if axis != args.axis and getattr(args, name) is not None:
                flag = "--" + name.replace("_", "-")
                raise MalformedInput(f"{flag} applies only to --axis {axis}")
            if axis == args.axis and getattr(args, name) is None:
                setattr(args, name, default)
    if args.axis == "noise" and not args.noise:
        raise MalformedInput("--axis noise requires --noise")
    if args.axis == "mixer" and args.mixer_a == args.mixer_b:
        raise MalformedInput(f"--mixer-a and --mixer-b are both {args.mixer_a}; give two mixers")


def cmd_compare(args) -> int:
    _resolve_axis_flags(args)
    nm = parse_noise(args.noise) if args.axis == "noise" else None
    model, source = _model_from_args(args, SIMULATOR_QUBIT_CAP)
    if args.axis == "mixer":
        reps = [
            _solve_from_args(args, model, source, mixer)
            for mixer in (args.mixer_a, args.mixer_b)
        ]
        body = {
            key: {"mixer": rep.mixer, "report": rep.to_dict()}
            for key, rep in zip(("a", "b"), reps)
        }
        arms = [(rep.mixer, rep.final_distribution) for rep in reps]
        masses = {rep.mixer: rep.ground_state_mass for rep in reps}
        axis_params = dict(mixer_a=args.mixer_a, mixer_b=args.mixer_b, p=args.p)
    else:  # noise axis
        rep = _solve_from_args(args, model, source, args.mixer)
        # Shared parameters: the noisy arm resamples the optimized circuit
        # through the trajectory engine instead of re-optimizing.
        best = rep.optimization.best_params
        circuit = build_ansatz(model, args.p, rep.mixer)
        bound = bind(circuit, best[: args.p], best[args.p :])
        noisy_dist = simulate_noisy(bound, nm, args.shots, args.seed)
        noisy_mass = noisy_dist.mass(rep.ground_states)
        body = {
            "noiseless": rep.to_dict(),
            "noisy": {
                "counts": dict(sorted(noisy_dist.counts.items())),
                "ground_state_mass": noisy_mass,
                "noise": noise_record(nm),
            },
        }
        arms = [("noiseless", rep.final_distribution), ("noisy", noisy_dist)]
        masses = {"noiseless": rep.ground_state_mass, "noisy": noisy_mass}
        axis_params = dict(noise=noise_record(nm), p=args.p, mixer=args.mixer)
    obj = {
        "axis": args.axis,
        **body,
        "ground_state_mass": masses,
        "manifest": _manifest(
            "compare",
            axis=args.axis,
            **source,
            **axis_params,
            shots=args.shots,
            seed=args.seed,
            restarts=args.restarts,
            max_evals=args.max_evals,
            sampled_objective=args.sampled_objective,
        ),
    }
    _write(json.dumps(obj, indent=2), args.out)
    if args.csv:
        _write(_merged_csv(arms), args.csv)
    return 0


def _add_common(p: argparse.ArgumentParser, solve: bool = False) -> None:
    p.add_argument("--graph", help="graph JSON file")
    p.add_argument("--terms", help="term-list JSON file")
    p.add_argument("--weight", type=float, default=1.0, help="penalty weight A")
    p.add_argument("--out", help="write JSON output to this file")
    p.add_argument("--drop-constant", action="store_true")
    p.add_argument(
        "--rescale",
        type=float,
        default=None,
        help="drop the constant and multiply all coefficients (order-preserving)",
    )
    if solve:
        p.add_argument("--p", type=int, default=2, help="QAOA layers")
        p.add_argument("--mixer", **_MIXER, default="RX")
        p.add_argument("--shots", type=int, default=DEFAULT_SHOTS)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--restarts", type=int, default=3)
        p.add_argument("--max-evals", type=int, default=4000)
        p.add_argument("--noise", help="p1=..,p2=..,ro=..")
        p.add_argument("--sampled-objective", action="store_true")
        p.add_argument("--csv", help="write distribution CSV here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hamqaoa",
        description="Compile Hamiltonian-cycle problems to Ising form and solve with QAOA.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="graph -> Pauli term list")
    p.add_argument("--graph", required=True)
    p.add_argument("--weight", type=float, default=1.0)
    p.add_argument("--out")
    constant = p.add_mutually_exclusive_group()
    constant.add_argument("--drop-constant", action="store_true")
    constant.add_argument("--keep-constant", action="store_true")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("spectrum", help="exact spectrum of the cost Hamiltonian")
    _add_common(p)
    p.add_argument("--csv", help="write full spectrum table CSV here")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("solve", help="run the QAOA variational loop")
    _add_common(p, solve=True)
    p.add_argument("--trace-csv", help="write optimizer trace CSV here")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("compare", help="paired runs along one axis")
    _add_common(p, solve=True)
    p.add_argument("--axis", choices=("mixer", "noise"), required=True)
    p.add_argument("--mixer-a", **_MIXER, help="--axis mixer only (default RX)")
    p.add_argument("--mixer-b", **_MIXER, help="--axis mixer only (default RY)")
    # defaults are filled in by _resolve_axis_flags, so that a flag the
    # axis ignores is refused only when it is given
    p.set_defaults(func=cmd_compare, mixer=None)
    return parser


def _run(args) -> int:
    try:
        _check_outputs(args)
        return args.func(args)
    except TooManyQubits as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE_CAP
    except (HamqaoaError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def main(argv=None) -> int:
    try:
        try:
            return _run(build_parser().parse_args(argv))
        finally:
            sys.stdout.flush()  # --help and --version exit through here too
    except BrokenPipeError as exc:
        # the reader closed stdout early; pointing stdout at devnull leaves
        # the interpreter's last flush nothing to fail on
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
