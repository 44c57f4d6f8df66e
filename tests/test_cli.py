import json
import os
import subprocess
import sys
import warnings
from importlib import resources
from pathlib import Path

import pytest

import hamqaoa
from hamqaoa import cli
from hamqaoa.cli import main, parse_noise
from hamqaoa.errors import MalformedInput


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    assert code == 0
    return json.loads(out)


@pytest.fixture
def fixture_terms_file(tmp_path):
    text = resources.files("hamqaoa.data").joinpath("square_reference.json").read_text()
    path = tmp_path / "square_reference.json"
    path.write_text(text)
    return str(path)


def test_compile_triangle(capsys, triangle_file):
    obj = run_json(capsys, "compile", "--graph", triangle_file)
    paulis = {t["pauli"]: t["coeff"] for t in obj["terms"]}
    assert paulis == {"ZZII": 0.5, "ZIZI": 0.5, "IZIZ": 0.5, "IIZZ": 0.5}
    assert obj["constant"] == 2.0
    assert obj["manifest"]["command"] == "compile"


def test_compile_keep_constant(capsys, triangle_file):
    obj = run_json(capsys, "compile", "--graph", triangle_file, "--keep-constant")
    assert obj["terms"][0] == {"pauli": "IIII", "coeff": 2.0}


def test_compile_square_drop_constant(capsys, square_file):
    obj = run_json(capsys, "compile", "--graph", square_file, "--drop-constant")
    assert len(obj["terms"]) == 31
    weights = [t["pauli"].count("Z") for t in obj["terms"]]
    assert weights.count(1) == 9
    assert weights.count(2) == 22
    assert "constant" not in obj


def test_compile_constant_flags_exclude_each_other(capsys, triangle_file):
    with pytest.raises(SystemExit) as exc:
        main(["compile", "--graph", triangle_file, "--drop-constant", "--keep-constant"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "not allowed with" in err and "Traceback" not in err


def test_compile_rejects_small_graph(capsys, tmp_path):
    path = tmp_path / "k2.json"
    path.write_text('{"n":2,"edges":[[1,2]]}')
    code, _ = run(capsys, "compile", "--graph", str(path))
    assert code == 2


def test_compile_missing_file(capsys):
    code, _ = run(capsys, "compile", "--graph", "/nonexistent.json")
    assert code == 2


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize(
    "command, flag",
    [("compile", "--weight"), ("spectrum", "--rescale"), ("solve", "--weight")],
)
def test_non_finite_number_is_an_input_error(capsys, triangle_file, command, flag, value):
    code = main([command, "--graph", triangle_file, f"{flag}={value}"])
    err = capsys.readouterr().err
    assert code == 2
    assert flag in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["compile", "--weight", "1e308"],
        ["spectrum", "--rescale", "1e308", "--weight", "100"],
        ["solve", "--weight", "1e308"],
        ["spectrum", "--terms"],
    ],
)
def test_coefficient_beyond_float_range_is_an_input_error(capsys, triangle_file, tmp_path, argv):
    if argv[-1] == "--terms":
        path = tmp_path / "huge.json"
        path.write_text('[{"pauli": "ZI", "coeff": 1' + "0" * 400 + "}]")
        argv = [*argv, str(path)]
    else:
        argv = [*argv, "--graph", triangle_file]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert "float range" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["spectrum", "solve"])
def test_energy_bound_beyond_float_range_is_an_input_error(capsys, tmp_path, command):
    # each coefficient is a float; their sum, which energies reach, is not
    path = tmp_path / "wide.json"
    path.write_text('[{"pauli": "ZI", "coeff": 1e308}, {"pauli": "IZ", "coeff": 1e308}]')
    code = main([command, "--terms", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "float range" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum"],
        ["solve", "--restarts", "1", "--seed", "0", "--p", "1", "--max-evals", "20"],
    ],
)
def test_energy_spread_beyond_float_range_is_an_input_error(capsys, tmp_path, argv):
    # the energies +-1e308 are floats; the gap between them is not, and the
    # cost phase gamma * E overflows for most angles
    path = tmp_path / "z.json"
    path.write_text('[{"pauli": "Z", "coeff": 1e308}]')
    code = main([*argv, "--terms", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "float range" in err and "Traceback" not in err


# gamma * 8e307 overflows for gamma above 2.25, so the cost phase is NaN at
# every angle this seed visits; those overflow warnings are the input's
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_objective_never_finite_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "z.json"
    path.write_text('[{"pauli": "Z", "coeff": 8e307}]')
    argv = ["solve", "--restarts", "1", "--seed", "0", "--p", "1", "--max-evals", "20"]
    code = main([*argv, "--terms", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "no finite value" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "terms, ground_energy, ground_states",
    [
        ([("Z", 1e300)], -1e300, ["1"]),
        ([("ZI", 1e300), ("IZ", 2e300)], -3e300, ["11"]),
    ],
)
def test_spectrum_of_energies_too_large_to_round(
    capsys, tmp_path, terms, ground_energy, ground_states
):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps([{"pauli": p, "coeff": c} for p, c in terms]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run(capsys, "spectrum", "--terms", str(path))
    assert code == 0

    def no_constant(name):
        raise ValueError(f"{name} is not JSON")

    obj = json.loads(out, parse_constant=no_constant)
    assert obj["ground_energy"] == ground_energy
    assert obj["ground_states"] == ground_states


@pytest.mark.parametrize(
    "argv",
    [["spectrum"], ["solve"], ["compare", "--axis", "mixer"]],
)
def test_graph_past_the_qubit_cap_is_refused_before_compiling(
    capsys, tmp_path, monkeypatch, argv
):
    def must_not_compile(*args, **kwargs):
        raise AssertionError("assemble ran on a graph past the cap")

    monkeypatch.setattr(cli, "assemble", must_not_compile)
    path = tmp_path / "k40.json"
    path.write_text(json.dumps({"n": 40, "edges": [[v, v + 1] for v in range(1, 40)]}))
    code = main([*argv, "--graph", str(path)])
    err = capsys.readouterr().err
    assert code == 3
    assert "1521 qubits" in err


def test_spectrum_triangle(capsys, triangle_file):
    obj = run_json(capsys, "spectrum", "--graph", triangle_file)
    assert obj["ground_energy"] == 0
    assert obj["ground_states"] == ["0110", "1001"]
    assert obj["gap"] > 0


def test_spectrum_csv_lists_every_level(capsys, triangle_file, tmp_path):
    csv = tmp_path / "spectrum.csv"
    obj = run_json(capsys, "spectrum", "--graph", triangle_file, "--csv", str(csv))
    lines = csv.read_text().splitlines()
    assert lines[0] == "energy,bitstring"
    rows = [line.split(",") for line in lines[1:]]
    expected = [(lvl["energy"], s) for lvl in obj["levels"] for s in lvl["states"]]
    assert [(float(e), s) for e, s in rows] == expected
    assert len(rows) == 16


def test_spectrum_triangle_reference_normalization(capsys, triangle_file):
    obj = run_json(capsys, "spectrum", "--graph", triangle_file, "--rescale", "2")
    assert obj["ground_energy"] == -4
    assert obj["ground_states"] == ["0110", "1001"]
    assert obj["gap"] == 4


def test_spectrum_square_fixture(capsys, fixture_terms_file):
    obj = run_json(capsys, "spectrum", "--terms", fixture_terms_file)
    assert obj["ground_energy"] == -20
    assert obj["ground_states"] == ["001010100", "100010001"]


def test_spectrum_empty_terms(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text('{"num_qubits": 2, "constant": 1.5, "terms": []}')
    obj = run_json(capsys, "spectrum", "--terms", str(path))
    assert len(obj["levels"]) == 1
    assert obj["levels"][0]["energy"] == 1.5


@pytest.mark.parametrize("command", ["spectrum", "solve"])
@pytest.mark.parametrize("num_qubits", [2.5, "3", True, -1])
def test_term_file_num_qubits_must_be_a_non_negative_integer(
    command, num_qubits, capsys, tmp_path
):
    path = tmp_path / "terms.json"
    path.write_text(json.dumps({"num_qubits": num_qubits, "terms": []}))
    assert main([command, "--terms", str(path)]) == 2
    assert "num_qubits must be a non-negative integer" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["spectrum", "solve"])
@pytest.mark.parametrize(
    "terms, constant",
    [
        ([{"pauli": "ZZ", "coeff": True}], 0),
        ([{"pauli": "ZZ", "coeff": 1}], True),
        ([{"pauli": "ZZ", "coeff": "1/3"}], 0),
        ([{"pauli": "ZZ", "coeff": 1}], "2"),
    ],
)
def test_term_file_bool_coefficient_is_refused(command, terms, constant, capsys, tmp_path):
    # JSON true is not the number 1, and the string "1/3" is not a number
    path = tmp_path / "terms.json"
    path.write_text(json.dumps({"num_qubits": 2, "terms": terms, "constant": constant}))
    bad = terms[0]["coeff"] if constant == 0 else constant
    assert main([command, "--terms", str(path)]) == 2
    assert f"must be a number, got {bad!r}" in capsys.readouterr().err


def test_spectrum_resource_cap(capsys, tmp_path):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"terms": [{"pauli": "Z" + "I" * 24, "coeff": 1}]}))
    code, _ = run(capsys, "spectrum", "--terms", str(path))
    assert code == 3


@pytest.mark.parametrize("argv", [["solve"], ["compare", "--axis", "mixer"]])
def test_term_file_past_the_simulator_cap_exits_3(argv, capsys, tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"num_qubits": 10**8, "terms": []}))
    assert main([*argv, "--terms", str(path)]) == 3
    assert "exceeds simulator cap 24" in capsys.readouterr().err


def test_compile_spectrum_pipe_consistency(capsys, triangle_file, tmp_path):
    terms_file = tmp_path / "compiled.json"
    code, _ = run(capsys, "compile", "--graph", triangle_file, "--out", str(terms_file))
    assert code == 0
    via_pipe = run_json(capsys, "spectrum", "--terms", str(terms_file))
    direct = run_json(capsys, "spectrum", "--graph", triangle_file)
    assert via_pipe["levels"] == direct["levels"]


def test_solve_p0_uniform(capsys, triangle_file):
    obj = run_json(capsys, "solve", "--graph", triangle_file, "--p", "0", "--shots", "4000")
    assert obj["p"] == 0
    assert sum(obj["counts"].values()) == 4000
    assert len(obj["counts"]) == 16


def test_solve_triangle(capsys, triangle_file, tmp_path):
    csv = tmp_path / "dist.csv"
    trace = tmp_path / "trace.csv"
    obj = run_json(
        capsys,
        "solve", "--graph", triangle_file, "--rescale", "2",
        "--p", "2", "--seed", "0", "--shots", "2000",
        "--csv", str(csv), "--trace-csv", str(trace),
    )
    assert obj["expectation_final"] <= -2.0
    assert set(obj["ground_states"]) == {"0110", "1001"}
    header = csv.read_text().splitlines()[0]
    assert header == "bitstring,count,probability"
    assert trace.read_text().splitlines()[0] == "eval,value"


def test_solve_with_noise(capsys, triangle_file):
    obj = run_json(
        capsys,
        "solve", "--graph", triangle_file, "--p", "1",
        "--noise", "p1=0.001,p2=0.01,ro=0.01",
        "--shots", "300", "--max-evals", "40", "--restarts", "1",
    )
    # the report spells the noise model as --noise and the manifest spell it
    assert obj["noise"] == obj["manifest"]["noise"] == {"p1": 0.001, "p2": 0.01, "ro": 0.01}


def test_solve_bad_noise_spec(capsys, triangle_file):
    code, _ = run(capsys, "solve", "--graph", triangle_file, "--noise", "bogus")
    assert code == 2


def test_parse_noise():
    nm = parse_noise("p1=0.001,p2=0.01,ro=0.02")
    assert (nm.p1, nm.p2, nm.readout_flip) == (0.001, 0.01, 0.02)
    assert parse_noise("p2=0.5").p1 == 0.0
    # empty components are skipped
    assert parse_noise("p1=0.1,,ro=0.2") == parse_noise("p1=0.1,ro=0.2")
    assert parse_noise("p2=0.3,") == parse_noise("p2=0.3")
    with pytest.raises(MalformedInput):
        parse_noise("p3=1")
    # a probability outside [0, 1] is refused by the key it was given as
    for spec, key in (("p1=1.5", "p1"), ("ro=-0.1", "ro"), ("p2=nan", "p2")):
        with pytest.raises(MalformedInput, match=rf"^{key} must be in \[0, 1\], got"):
            parse_noise(spec)
    # a repeated component is refused, not overwritten by its last value
    for spec in ("p1=0.1,p1=0.2", "p1=0.001,p1=0.01", "ro=0,p2=0.1,ro=0"):
        with pytest.raises(MalformedInput, match="given twice"):
            parse_noise(spec)


_QUICK_SOLVE = ["--graph", "{triangle}", "--p", "1", "--shots", "10", "--max-evals", "4"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "--noise", "p1=abc", "--graph", "{triangle}"], "bad noise value"),
        (["solve", "--noise", "p1=0.1,p1=0.2", "--graph", "{triangle}"], "given twice"),
        (["spectrum"], "need --graph or --terms"),
        (["spectrum", "--terms", "{not_json}"], "invalid JSON"),
        (["solve", "--shots", "0", "--graph", "{triangle}"], "shots must be in"),
        (["solve", *_QUICK_SOLVE, "--seed", "-1"], "seed must be >= 0"),
        (
            ["solve", "--p", "100000000", "--max-evals", "1", "--graph", "{triangle}"],
            "layer count",
        ),
        (["compile", "--graph", "{triangle}", "--out", "{missing}/out.json"], "cannot write"),
        (["spectrum", "--graph", "{triangle}", "--out", "{missing}/out.json"], "cannot write"),
        (["spectrum", "--graph", "{triangle}", "--csv", "{missing}/out.csv"], "cannot write"),
        (["solve", *_QUICK_SOLVE, "--csv", "{missing}/out.csv"], "cannot write"),
        (["solve", *_QUICK_SOLVE, "--trace-csv", "{missing}/out.csv"], "cannot write"),
        (
            ["compare", "--axis", "mixer", *_QUICK_SOLVE, "--csv", "{missing}/out.csv"],
            "cannot write",
        ),
        # a write that fails only once it is made: /dev/full takes the open
        # and refuses the bytes, which no check before the work can see
        pytest.param(
            ["spectrum", "--graph", "{triangle}", "--out", "/dev/full"],
            "cannot write /dev/full: [Errno 28]",
            marks=pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full"),
        ),
    ],
    ids=[
        "noise-value", "noise-repeated", "no-model", "terms-not-json", "zero-shots",
        "negative-seed", "layers-past-cap", "compile-out", "spectrum-out", "spectrum-csv",
        "solve-csv", "solve-trace-csv", "compare-csv", "spectrum-out-device-full",
    ],
)
def test_input_error_exits_2_without_traceback(capsys, triangle_file, tmp_path, argv, message):
    not_json = tmp_path / "terms.json"
    not_json.write_text("ZZ 1.0\n")
    missing = tmp_path / "missing"
    argv = [a.format(triangle=triangle_file, not_json=not_json, missing=missing) for a in argv]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", *_QUICK_SOLVE, "--csv", "{missing}/out.csv"],
        ["solve", *_QUICK_SOLVE, "--trace-csv", "{tmp}"],
        ["compare", "--axis", "mixer", *_QUICK_SOLVE, "--csv", "{missing}/out.csv"],
    ],
    ids=["solve-csv-in-missing-directory", "solve-trace-csv-is-a-directory", "compare-csv"],
)
def test_unwritable_output_is_refused_before_the_solve(
    argv, capsys, triangle_file, tmp_path, monkeypatch
):
    def must_not_run(*args, **kwargs):
        raise AssertionError("the solve started before the output paths were checked")

    monkeypatch.setattr(hamqaoa.optimizer, "minimize", must_not_run)
    missing = tmp_path / "missing"
    argv = [a.format(triangle=triangle_file, missing=missing, tmp=tmp_path) for a in argv]
    code, out = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert not missing.exists()


def test_bad_csv_leaves_an_existing_out_file_untouched(capsys, triangle_file, tmp_path):
    out = tmp_path / "report.json"
    out.write_text("earlier report\n")
    argv = [a.format(triangle=triangle_file) for a in _QUICK_SOLVE]
    code = main(["solve", *argv, "--out", str(out), "--csv", str(tmp_path / "missing" / "o.csv")])
    assert code == 2
    assert "cannot write" in capsys.readouterr().err
    assert out.read_text() == "earlier report\n"


@pytest.mark.parametrize("command", ["compile", "spectrum", "solve"])
def test_graph_file_bool_endpoint_is_refused(command, capsys, tmp_path):
    # JSON true is not the vertex 1
    path = tmp_path / "bool.json"
    path.write_text('{"n": 3, "edges": [[true, 2], [2, 3], [1, 3]]}')
    code = main([command, "--graph", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "bad edge entry [True, 2]" in err and "Traceback" not in err


def _module_cli(*argv, cwd):
    """Run ``python -m hamqaoa.cli`` in a fresh interpreter on this source tree."""
    env = dict(os.environ)
    src = str(Path(hamqaoa.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "hamqaoa.cli", *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize(
    "argv, code",
    [
        (["--version"], 0),
        (["spectrum", "--graph", "triangle.json"], 0),
        (["spectrum", "--graph", "missing.json"], 2),
        (["solve", "--graph", "triangle.json", "--p", "0", "--shots", "10000000000000"], 2),
    ],
    ids=["version", "spectrum", "missing-file", "shots-past-cap"],
)
def test_module_entry_point_exit_codes(triangle_file, argv, code):
    proc = _module_cli(*argv, cwd=Path(triangle_file).parent)
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    if argv == ["--version"]:
        assert proc.stdout.strip() == hamqaoa.__version__
    elif proc.returncode == 0:
        assert json.loads(proc.stdout)["ground_states"] == ["0110", "1001"]


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--graph", "triangle.json"],
        ["compile", "--graph", "triangle.json"],
        ["solve", "--graph", "triangle.json", "--p", "1", "--max-evals", "5"],
    ],
    ids=["spectrum", "compile", "solve"],
)
def test_closed_stdout_exits_2_without_traceback(triangle_file, argv, unbuffered):
    # the reader is gone before the first write, as after ``| head -n 1``
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
    src = str(Path(hamqaoa.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hamqaoa.cli", *argv],
            cwd=Path(triangle_file).parent, env=env, stdout=write_end,
            stderr=subprocess.PIPE, text=True, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot write stdout: [Errno 32] Broken pipe\n"


def test_compare_identical_mixers(capsys, triangle_file):
    # two arms of one mixer would share one mass key and one CSV column
    # name; the mixers are compared after their case is normalized
    for mixers in (["--mixer-a", "rx", "--mixer-b", "rx"], ["--mixer-a", "ry", "--mixer-b", "RY"],
                   ["--mixer-a", "ry"]):
        code = main(["compare", "--axis", "mixer", "--graph", triangle_file, *mixers])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert "--mixer-a and --mixer-b are both" in err and "Traceback" not in err


def test_compare_mixer_axis(capsys, triangle_file):
    obj = run_json(
        capsys,
        "compare", "--axis", "mixer", "--graph", triangle_file, "--rescale", "2",
        "--p", "2", "--shots", "2000", "--seed", "0",
    )
    masses = obj["ground_state_mass"]
    assert masses["RX"] > masses["RY"]


def test_compare_noise_axis(capsys, triangle_file, tmp_path):
    csv = tmp_path / "merged.csv"
    obj = run_json(
        capsys,
        "compare", "--axis", "noise", "--graph", triangle_file, "--rescale", "2",
        "--noise", "p1=0.001,p2=0.01,ro=0.01",
        "--p", "2", "--shots", "2000", "--seed", "0", "--csv", str(csv),
    )
    masses = obj["ground_state_mass"]
    assert 0.0 <= masses["noisy"] <= 1.0
    assert 0.0 <= masses["noiseless"] <= 1.0
    assert csv.read_text().splitlines()[0] == "bitstring,count_noiseless,count_noisy"


def test_compare_arms_equal_solve_runs(capsys, triangle_file):
    flags = [
        "--graph", triangle_file, "--rescale", "2", "--p", "1", "--shots", "500",
        "--max-evals", "60", "--restarts", "2", "--seed", "4",
    ]
    by_mixer = run_json(capsys, "compare", "--axis", "mixer", *flags)
    for arm, mixer in [("a", "rx"), ("b", "ry")]:
        assert by_mixer[arm]["report"] == run_json(capsys, "solve", *flags, "--mixer", mixer)
    by_noise = run_json(
        capsys, "compare", "--axis", "noise", "--noise", "p1=0.01", "--mixer", "ry", *flags
    )
    assert by_noise["noiseless"] == run_json(capsys, "solve", *flags, "--mixer", "ry")


def test_compare_noise_axis_requires_noise(capsys, triangle_file):
    code, _ = run(capsys, "compare", "--axis", "noise", "--graph", triangle_file)
    assert code == 2


def test_compare_mixer_axis_refuses_noise(capsys, triangle_file):
    code = main(
        ["compare", "--axis", "mixer", "--noise", "p1=0.3", "--graph", triangle_file]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert "--noise applies only to --axis noise" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--axis", "mixer", "--mixer", "ry"], "--mixer applies only to --axis noise"),
        (
            ["--axis", "noise", "--noise", "p1=0.01", "--mixer-a", "ry"],
            "--mixer-a applies only to --axis mixer",
        ),
        (
            ["--axis", "noise", "--noise", "p1=0.01", "--mixer-b", "rx"],
            "--mixer-b applies only to --axis mixer",
        ),
    ],
)
def test_compare_refuses_a_flag_its_axis_ignores(capsys, triangle_file, argv, message):
    code = main(["compare", "--graph", triangle_file, *argv])
    err = capsys.readouterr().err
    assert code == 2
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "--noise", "ro=-0.1"], "ro must be in [0, 1], got -0.1"),
        (["solve", "--noise", "bogus"], "bad noise component"),
        (["compare", "--axis", "noise"], "--axis noise requires --noise"),
        (["compare", "--axis", "noise", "--noise", "p1=2"], "p1 must be in [0, 1]"),
        (["compare", "--axis", "mixer", "--noise", "p1=0.1"], "--noise applies only"),
        (["compare", "--axis", "mixer", "--mixer", "ry"], "--mixer applies only"),
        (["compare", "--axis", "mixer", "--mixer-b", "rx"], "are both RX"),
    ],
    ids=[
        "solve-noise-range", "solve-noise-malformed", "compare-no-noise",
        "compare-noise-range", "compare-mixer-axis-noise", "compare-mixer-axis-mixer",
        "compare-equal-mixers",
    ],
)
def test_bad_flags_are_refused_before_the_compile(
    capsys, triangle_file, monkeypatch, argv, message
):
    calls = []
    real = cli._model_from_args
    monkeypatch.setattr(cli, "_model_from_args", lambda *a: calls.append(a) or real(*a))
    code = main([*argv, "--graph", triangle_file])
    err = capsys.readouterr().err
    assert code == 2
    assert message in err
    assert calls == []
    # the counter sees a compile that does happen
    assert main(["spectrum", "--graph", triangle_file]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("axis", ["mixer", "noise"])
def test_compare_manifest_names_every_parameter(capsys, triangle_file, axis):
    noise = ["--noise", "p1=0.01"] if axis == "noise" else []
    obj = run_json(
        capsys,
        "compare", "--axis", axis, "--graph", triangle_file, "--rescale", "2", *noise,
        "--p", "1", "--shots", "100", "--max-evals", "40", "--restarts", "2",
        "--sampled-objective",
    )
    manifest = obj["manifest"]
    arms = ["mixer_a", "mixer_b"] if axis == "mixer" else ["mixer", "noise"]
    for key in ["p", "shots", "seed", "restarts", "max_evals", "sampled_objective", *arms]:
        assert key in manifest
    assert manifest["restarts"] == 2 and manifest["max_evals"] == 40
    assert manifest["sampled_objective"] is True


def test_rerun_reproduces_output(capsys, triangle_file, tmp_path):
    args = [
        "solve", "--graph", triangle_file, "--p", "1", "--seed", "7",
        "--shots", "1000", "--max-evals", "300",
    ]
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert out_a.read_text() == out_b.read_text()


def _argv_from_manifest(manifest: dict) -> list[str]:
    """The command line a manifest records: each key as its flag, a true
    bool as a bare flag, the noise model as --noise p1=..,p2=..,ro=..; a
    false bool and a null are the defaults and give no flag."""
    argv = [manifest["command"]]
    for key, value in manifest.items():
        if key in ("command", "version") or value is None or value is False:
            continue
        flag = "--" + key.replace("_", "-")
        if value is True:
            argv.append(flag)
        elif isinstance(value, dict):
            argv += [flag, ",".join(f"{k}={v}" for k, v in value.items())]
        else:
            argv += [flag, str(value)]
    return argv


_REPLAY_SOLVE = [
    "--graph", "{triangle}", "--p", "1", "--shots", "200", "--max-evals", "30",
    "--restarts", "2", "--seed", "5",
]


@pytest.mark.parametrize(
    "argv",
    [
        ["compile", "--graph", "{triangle}", "--keep-constant"],
        ["spectrum", "--graph", "{triangle}", "--rescale", "2"],
        ["solve", *_REPLAY_SOLVE, "--mixer", "ry", "--sampled-objective"],
        ["solve", *_REPLAY_SOLVE, "--noise", "p1=0.01,ro=0.02"],
        ["compare", "--axis", "mixer", *_REPLAY_SOLVE, "--mixer-a", "ry", "--mixer-b", "rx"],
        ["compare", "--axis", "noise", *_REPLAY_SOLVE, "--noise", "p2=0.01"],
    ],
    ids=["compile", "spectrum", "solve", "solve-noisy", "compare-mixer", "compare-noise"],
)
def test_manifest_replays_to_the_same_output(capsys, triangle_file, argv):
    # a run can be reproduced from its output alone
    code, first = run(capsys, *(a.format(triangle=triangle_file) for a in argv))
    assert code == 0
    manifest = json.loads(first)["manifest"]
    assert manifest["version"] == hamqaoa.__version__
    code, again = run(capsys, *_argv_from_manifest(manifest))
    assert code == 0
    assert again == first


def test_solve_past_the_spectrum_cap(capsys, tmp_path):
    # 21 qubits: above the 20-qubit spectrum cap, within the simulator's 24
    q = 21
    terms = [{"pauli": "I" * k + "Z" + "I" * (q - k - 1), "coeff": 1} for k in range(q)]
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"terms": terms}))
    obj = run_json(
        capsys,
        "solve", "--terms", str(path), "--p", "1", "--shots", "10",
        "--max-evals", "4", "--restarts", "1",
    )
    assert obj["ground_states"] == ["1" * q]
    assert sum(obj["counts"].values()) == 10
