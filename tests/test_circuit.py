import cmath
import math

import numpy as np
import pytest

from hamqaoa import (
    Gate,
    IsingModel,
    Param,
    bind,
    build_ansatz,
    simulate,
)
from hamqaoa import circuit as circuit_module
from hamqaoa.circuit import LAYER_CAP
from hamqaoa.errors import ArityMismatch, EmptyModel


def symbolic_params(circuit):
    return {
        (g.angle.family, g.angle.layer)
        for g in circuit.gates
        if isinstance(g.angle, Param)
    }


def test_triangle_ansatz_structure(triangle_model):
    c = build_ansatz(triangle_model, 2, "RX")
    assert c.num_qubits == 4
    kinds = [g.kind for g in c.gates]
    assert kinds[:4] == ["H"] * 4
    # per layer: 4 quadratic terms -> 4 x (CNOT, RZ, CNOT), then 4 RX
    assert kinds.count("CNOT") == 2 * 8
    assert kinds.count("RZ") == 2 * 4
    assert kinds.count("RX") == 2 * 4
    assert symbolic_params(c) == {
        ("gamma", 1), ("gamma", 2), ("beta", 1), ("beta", 2)
    }


def test_zero_layers_is_hadamard_row(triangle_model):
    c = build_ansatz(triangle_model, 0)
    assert all(g.kind == "H" for g in c.gates)
    assert len(c.gates) == 4


def test_square_fixture_parameter_count(square_fixture_model):
    c = build_ansatz(square_fixture_model, 8, "RX")
    assert len(symbolic_params(c)) == 16


def test_gate_count_formula(triangle_model, square_fixture_model):
    for m, p in [(triangle_model, 2), (triangle_model, 5), (square_fixture_model, 8)]:
        c = build_ansatz(m, p)
        q = m.num_qubits
        expected = q + p * (3 * len(m.quadratic) + len(m.linear) + q)
        assert len(c.gates) == expected


def test_empty_model_rejected():
    with pytest.raises(EmptyModel):
        build_ansatz(IsingModel(0, 0, {}, {}), 1)


def test_negative_layer_count_rejected(triangle_model):
    with pytest.raises(ValueError, match="layer count"):
        build_ansatz(triangle_model, -1)


@pytest.mark.parametrize("p", [True, False, 1.5, 2.0, "2", None])
def test_layer_count_that_is_no_integer_is_refused(p, triangle_model, monkeypatch):
    # refused before any gate is built; numpy integers are integers
    def must_not_run(*args, **kwargs):
        raise AssertionError("built a gate")

    monkeypatch.setattr(circuit_module, "Gate", must_not_run)
    with pytest.raises(ValueError, match="layer count must be an integer"):
        build_ansatz(triangle_model, p)


def test_layer_count_may_be_a_numpy_integer(triangle_model):
    assert build_ansatz(triangle_model, np.int64(2)) == build_ansatz(triangle_model, 2)


def test_layer_count_capped():
    one_qubit = IsingModel(1, 0, {1: 1}, {})
    assert build_ansatz(one_qubit, LAYER_CAP).num_layers == 1024
    with pytest.raises(ValueError, match="layer count"):
        build_ansatz(one_qubit, LAYER_CAP + 1)


@pytest.mark.parametrize(
    "kind, targets, message",
    [
        ("CZ", (1, 2), "unknown gate kind"),
        ("RX", (1, 2), "exactly one qubit"),
        ("CNOT", (1,), "two distinct qubits"),
        ("CNOT", (2, 2), "two distinct qubits"),
    ],
)
def test_gate_rejects_bad_kind_or_arity(kind, targets, message):
    with pytest.raises(ValueError, match=message):
        Gate(kind, targets)


def test_bind_full_substitution(triangle_model):
    c = build_ansatz(triangle_model, 2, "RX")
    bound = bind(c, [0.3, 0.1], [0.7, 0.2])
    assert bound.is_bound
    assert len(bound.gates) == len(c.gates)


def test_bind_zero_angles_gives_uniform_state(triangle_model):
    c = bind(build_ansatz(triangle_model, 1), [0.0], [0.0])
    probs = simulate(c).probabilities()
    assert np.allclose(probs, 1 / 16, atol=1e-12)


def test_bind_arity_mismatch(triangle_model):
    c = build_ansatz(triangle_model, 2)
    with pytest.raises(ArityMismatch):
        bind(c, [0.1], [0.2])


def test_single_term_phase_convention():
    # model w * Z_1: after H, the cost layer must produce the phases
    # e^(-i w gamma) on |0> and e^(+i w gamma) on |1>
    w, gamma = 0.8, 0.37
    m = IsingModel(1, 0, {1: w}, {})
    c = bind(build_ansatz(m, 1, "RX"), [gamma], [0.0])
    amps = simulate(c).amplitudes
    expected = np.array(
        [cmath.exp(-1j * w * gamma), cmath.exp(1j * w * gamma)]
    ) / math.sqrt(2)
    assert np.allclose(amps, expected, atol=1e-12)


def test_rz_matches_exponential_up_to_global_phase():
    # RZ(2 w gamma) equals e^(-i gamma w Z) exactly in this convention
    w, gamma = 1.3, 0.52
    m = IsingModel(1, 0, {1: w}, {})
    c = bind(build_ansatz(m, 1), [gamma], [0.0])
    amps = simulate(c).amplitudes
    exact = np.array([np.exp(-1j * gamma * w), np.exp(1j * gamma * w)]) / math.sqrt(2)
    ratio = amps / exact
    assert np.allclose(ratio, ratio[0], atol=1e-12)
    assert abs(abs(ratio[0]) - 1) < 1e-12


def test_dump_format(triangle_model):
    c = build_ansatz(triangle_model, 1, "RX")
    lines = c.dump().splitlines()
    assert lines[0] == "H 1"
    assert any(line.startswith("CNOT ") for line in lines)
    assert lines[-1] == "RX 4 b1*2"
    bound = bind(c, [0.3], [0.35])
    assert bound.dump().splitlines()[-1] == "RX 4 0.700000"
