"""Layered QAOA ansatz construction as an abstract gate list.

Rotation gates follow the R(theta) = exp(-i theta P / 2) convention, so
RZ(2 w gamma) on qubit k realizes exp(-i gamma w Z_k) and the cost layer
implements exp(-i gamma H_C) exactly (up to the dropped identity part).
ZZ terms decompose as CNOT - RZ - CNOT.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from numbers import Integral

from .errors import ArityMismatch, EmptyModel
from .qubo import IsingModel

# Most layers an ansatz may have: at about 210 B per gate and up to 876
# gates per layer at 24 qubits, 1024 layers keep the gate list near 185 MB.
LAYER_CAP = 1024


@dataclass(frozen=True)
class Param:
    """Symbolic angle: scale * (gamma or beta of a given layer)."""

    family: str  # "gamma" | "beta"
    layer: int  # 1-based
    scale: float = 1.0

    def __str__(self) -> str:
        tag = ("g" if self.family == "gamma" else "b") + str(self.layer)
        return tag if self.scale == 1.0 else f"{tag}*{self.scale:g}"


@dataclass(frozen=True)
class Gate:
    kind: str
    targets: tuple[int, ...]
    angle: float | Param | None = None

    def __post_init__(self):
        if self.kind == "CNOT":
            if len(self.targets) != 2 or self.targets[0] == self.targets[1]:
                raise ValueError("CNOT needs two distinct qubits")
        elif self.kind in ("RX", "RY", "RZ"):
            if len(self.targets) != 1:
                raise ValueError(f"{self.kind} acts on exactly one qubit")
        elif self.kind != "H":
            raise ValueError(f"unknown gate kind {self.kind!r}")


@dataclass(frozen=True)
class ParamCircuit:
    num_qubits: int
    gates: tuple[Gate, ...]
    num_layers: int
    mixer_kind: str = "RX"

    @property
    def is_bound(self) -> bool:
        return not any(isinstance(g.angle, Param) for g in self.gates)

    def dump(self) -> str:
        """One gate per line, for debugging."""
        lines = []
        for g in self.gates:
            parts = [g.kind, *map(str, g.targets)]
            if g.angle is not None:
                parts.append(
                    f"{g.angle:.6f}" if isinstance(g.angle, float) else str(g.angle)
                )
            lines.append(" ".join(parts))
        return "\n".join(lines)


def check_mixer(mixer: str) -> str:
    """Gate kind of a mixer name, case-insensitive: RX or RY."""
    kind = mixer.upper()
    if kind not in ("RX", "RY"):
        raise ValueError(f"mixer must be RX or RY, got {mixer!r}")
    return kind


def check_ansatz(m: IsingModel, p: int, mixer: str) -> str:
    """Gate kind of the mixer of a p-layer ansatz for the model, after
    refusing what ``build_ansatz`` cannot build: an unknown mixer, a
    model with no qubits, and a layer count that is a bool, no integer or
    outside 0..LAYER_CAP."""
    mixer = check_mixer(mixer)
    if m.num_qubits < 1:
        raise EmptyModel("ansatz needs at least one qubit")
    if isinstance(p, bool) or not isinstance(p, Integral):
        raise ValueError(f"layer count must be an integer, got {p!r}")
    if not 0 <= p <= LAYER_CAP:
        raise ValueError(f"layer count must be in 0..{LAYER_CAP}, got {p}")
    return mixer


def build_ansatz(m: IsingModel, p: int, mixer: str = "RX") -> ParamCircuit:
    """Hadamard row followed by p alternating cost and mixer blocks.

    Cost block, layer l, in the order of ``IsingModel.terms``: RZ(2 w
    gamma_l) per linear term, then CNOT(j,k), RZ(2 w gamma_l) on k,
    CNOT(j,k) per quadratic term.  Mixer block: RX(2 beta_l) (or RY) on
    every qubit.
    The constant term only contributes a global phase and is ignored.
    """
    mixer = check_ansatz(m, p, mixer)
    gates: list[Gate] = [Gate("H", (q,)) for q in range(1, m.num_qubits + 1)]
    terms = [(qubits, 2.0 * float(w)) for qubits, w in m.terms()]
    for layer in range(1, p + 1):
        for qubits, scale in terms:
            gamma = Param("gamma", layer, scale)
            if len(qubits) == 1:
                gates.append(Gate("RZ", qubits, gamma))
            else:
                j, k = qubits
                gates.append(Gate("CNOT", (j, k)))
                gates.append(Gate("RZ", (k,), gamma))
                gates.append(Gate("CNOT", (j, k)))
        beta = Param("beta", layer, 2.0)
        for q in range(1, m.num_qubits + 1):
            gates.append(Gate(mixer, (q,), beta))
    return ParamCircuit(m.num_qubits, tuple(gates), p, mixer)


def bind(c: ParamCircuit, gamma, beta) -> ParamCircuit:
    """Substitute literal angles for every symbolic parameter."""
    gamma = list(gamma)
    beta = list(beta)
    if len(gamma) != c.num_layers or len(beta) != c.num_layers:
        raise ArityMismatch(
            f"need {c.num_layers} gammas and betas, got {len(gamma)}/{len(beta)}"
        )
    values = {"gamma": gamma, "beta": beta}
    bound = []
    for g in c.gates:
        if isinstance(g.angle, Param):
            a = g.angle
            bound.append(replace(g, angle=a.scale * float(values[a.family][a.layer - 1])))
        else:
            bound.append(g)
    return ParamCircuit(c.num_qubits, tuple(bound), c.num_layers, c.mixer_kind)
