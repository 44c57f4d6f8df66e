"""Command-line front end: compile, spectrum, solve, compare.

Every JSON output embeds a manifest of the resolved parameters, so a run
can be reproduced from its output alone.  Plot data is emitted as CSV;
no images are rendered.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from importlib import resources

from . import __version__
from .circuit import bind, build_ansatz
from .engine import (
    DEFAULT_SHOTS,
    SIMULATOR_QUBIT_CAP,
    Distribution,
    NoiseModel,
    simulate_noisy,
)
from .errors import HamqaoaError, MalformedInput, TooManyQubits
from .graph import parse_graph
from .hamiltonian import SPECTRUM_QUBIT_CAP, DiagonalHamiltonian, full_spectrum
from .optimizer import OptimizerConfig, qaoa_solve
from .qubo import IsingModel, assemble, from_term_list, strip_constant, to_ising, to_term_list

EXIT_INPUT_ERROR = 2
EXIT_RESOURCE_CAP = 3


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise MalformedInput(f"cannot read {path}: {exc}") from exc


def _write_out(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def parse_noise(spec: str) -> NoiseModel:
    """Parse 'p1=0.001,p2=0.01,ro=0.01' into a NoiseModel."""
    values = {"p1": 0.0, "p2": 0.0, "ro": 0.0}
    for part in spec.split(","):
        if not part:
            continue
        key, _, val = part.partition("=")
        if key not in values or not val:
            raise MalformedInput(f"bad noise component {part!r}")
        try:
            values[key] = float(val)
        except ValueError as exc:
            raise MalformedInput(f"bad noise value {part!r}") from exc
    try:
        return NoiseModel(p1=values["p1"], p2=values["p2"], readout_flip=values["ro"])
    except ValueError as exc:
        raise MalformedInput(str(exc)) from exc


def _noise_dict(nm: NoiseModel | None) -> dict | None:
    """A noise model as the manifest records it."""
    return None if nm is None else {"p1": nm.p1, "p2": nm.p2, "ro": nm.readout_flip}


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
    if getattr(args, "terms", None):
        model = load_terms(_read(args.terms))
        source = {"terms": args.terms}
    elif getattr(args, "graph", None):
        model = _compile_graph(args.graph, args.weight, cap)
        source = {"graph": args.graph, "weight": args.weight}
    else:
        raise MalformedInput("need --graph or --terms")
    rescale = _finite("--rescale", getattr(args, "rescale", None))
    if getattr(args, "drop_constant", False) or rescale is not None:
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
    for bits in sorted(dist.counts):
        c = dist.counts[bits]
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
    _write_out(json.dumps(obj, indent=2), args.out)
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
    _write_out(json.dumps(obj, indent=2), args.out)
    if args.csv:
        lines = ["energy,bitstring"]
        for e, states in spec.levels:
            lines.extend(f"{e},{s}" for s in sorted(states))
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    return 0


def _solve_from_args(args, model, source, mixer=None, nm=None):
    cfg = OptimizerConfig(
        max_evals=args.max_evals, restarts=args.restarts, seed=args.seed
    )
    mixer = (mixer or args.mixer).upper()
    manifest = _manifest(
        "solve",
        **source,
        p=args.p,
        mixer=mixer,
        shots=args.shots,
        seed=args.seed,
        restarts=args.restarts,
        max_evals=args.max_evals,
        noise=_noise_dict(nm),
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
    model, source = _model_from_args(args, SIMULATOR_QUBIT_CAP)
    nm = parse_noise(args.noise) if args.noise else None
    report = _solve_from_args(args, model, source, nm=nm)
    _write_out(report.to_json(), args.out)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(_dist_csv(report.final_distribution) + "\n")
    if args.trace_csv:
        lines = ["eval,value"] + [
            f"{i},{v}" for i, v in report.optimization.trace
        ]
        with open(args.trace_csv, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    return 0


def _merged_csv(label_a, dist_a, label_b, dist_b) -> str:
    keys = sorted(set(dist_a.counts) | set(dist_b.counts))
    lines = [f"bitstring,count_{label_a},count_{label_b}"]
    for bits in keys:
        lines.append(
            f"{bits},{dist_a.counts.get(bits, 0)},{dist_b.counts.get(bits, 0)}"
        )
    return "\n".join(lines)


def cmd_compare(args) -> int:
    model, source = _model_from_args(args, SIMULATOR_QUBIT_CAP)
    if args.axis == "noise" and not args.noise:
        raise MalformedInput("--axis noise requires --noise")
    if args.axis == "mixer" and args.noise:
        raise MalformedInput("--noise applies only to --axis noise")
    if args.axis == "mixer":
        rep_a = _solve_from_args(args, model, source, mixer=args.mixer_a)
        rep_b = _solve_from_args(args, model, source, mixer=args.mixer_b)
        obj = {
            "axis": "mixer",
            "a": {"mixer": rep_a.mixer, "report": json.loads(rep_a.to_json())},
            "b": {"mixer": rep_b.mixer, "report": json.loads(rep_b.to_json())},
            "ground_state_mass": {
                rep_a.mixer: rep_a.ground_state_mass,
                rep_b.mixer: rep_b.ground_state_mass,
            },
            "manifest": _manifest(
                "compare",
                axis="mixer",
                **source,
                mixer_a=args.mixer_a,
                mixer_b=args.mixer_b,
                p=args.p,
                shots=args.shots,
                seed=args.seed,
            ),
        }
        dist_a, dist_b = rep_a.final_distribution, rep_b.final_distribution
        label_a, label_b = rep_a.mixer.lower(), rep_b.mixer.lower()
    else:  # noise axis
        nm = parse_noise(args.noise)
        rep = _solve_from_args(args, model, source)
        # Shared parameters: the noisy arm resamples the optimized circuit
        # through the trajectory engine instead of re-optimizing.
        circuit = build_ansatz(model, args.p, rep.mixer)
        p = args.p
        bound = bind(
            circuit,
            rep.optimization.best_params[:p],
            rep.optimization.best_params[p:],
        )
        noisy_dist = simulate_noisy(bound, nm, args.shots, args.seed)
        noisy_mass = noisy_dist.mass(rep.ground_states)
        obj = {
            "axis": "noise",
            "noiseless": json.loads(rep.to_json()),
            "noisy": {
                "counts": dict(sorted(noisy_dist.counts.items())),
                "ground_state_mass": noisy_mass,
                "noise": _noise_dict(nm),
            },
            "ground_state_mass": {
                "noiseless": rep.ground_state_mass,
                "noisy": noisy_mass,
            },
            "manifest": _manifest(
                "compare",
                axis="noise",
                **source,
                noise=_noise_dict(nm),
                p=args.p,
                mixer=args.mixer,
                shots=args.shots,
                seed=args.seed,
            ),
        }
        dist_a, dist_b = rep.final_distribution, noisy_dist
        label_a, label_b = "noiseless", "noisy"
    _write_out(json.dumps(obj, indent=2), args.out)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(_merged_csv(label_a, dist_a, label_b, dist_b) + "\n")
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
        p.add_argument("--mixer", choices=("rx", "ry"), default="rx")
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
    p.add_argument("--mixer-a", choices=("rx", "ry"), default="rx")
    p.add_argument("--mixer-b", choices=("rx", "ry"), default="ry")
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TooManyQubits as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE_CAP
    except HamqaoaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
