"""The CLI exits with 0, 2 or 3 on any graph file, term file or noise
string, and never lets an exception escape."""
import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hamqaoa.cli import main

# Qubit counts from 13 to 24 are valid but slow to simulate, so integers
# skip that band; above it the caps apply.
INTS = st.integers(-4, 12) | st.integers(min_value=25) | st.integers(max_value=-5)
SCALARS = (
    st.none()
    | st.booleans()
    | INTS
    | st.integers(10**300, 10**400)
    | st.floats()
    | st.text(max_size=6)
)
# numbers weighed up against other JSON values
COEFFS = st.integers(-5, 5) | st.floats() | st.integers(10**300, 10**400) | SCALARS
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
# Well-formed inputs, listed twice to weigh them up, reach past the
# parsers: graphs of up to 6 vertices (25 qubits, past both caps) and
# term lists of up to 6 qubits with any coefficients.
VALID_GRAPHS = st.integers(3, 6).flatmap(
    lambda n: st.fixed_dictionaries(
        {
            "n": st.just(n),
            "edges": st.lists(
                st.sampled_from([[u, v] for u in range(1, n + 1) for v in range(u + 1, n + 1)]),
                max_size=10,
            ),
        }
    )
)
VERTICES = st.integers(-1, 7) | JSON
GRAPHS = st.one_of(
    VALID_GRAPHS,
    VALID_GRAPHS,
    st.fixed_dictionaries(
        {"n": VERTICES, "edges": st.lists(st.lists(VERTICES, max_size=3) | JSON, max_size=4)}
    ),
    JSON,
)


def term_lists(q):
    pauli = st.lists(st.integers(0, q - 1), max_size=3, unique=True).map(
        lambda zs: "".join("Z" if i in zs else "I" for i in range(q))
    )
    return st.lists(
        st.fixed_dictionaries({"pauli": pauli, "coeff": COEFFS}), min_size=1, max_size=5
    )


VALID_TERMS = st.integers(1, 6).flatmap(term_lists)
TERM_FILES = st.fixed_dictionaries(
    {"terms": VALID_TERMS}, optional={"num_qubits": INTS, "constant": COEFFS}
)
ANY_TERM = st.fixed_dictionaries(
    {"pauli": st.text(alphabet="IZXY", max_size=7) | JSON, "coeff": SCALARS}
)
TERMS = st.one_of(
    VALID_TERMS,
    TERM_FILES,
    TERM_FILES,
    st.fixed_dictionaries(
        {"terms": st.lists(ANY_TERM | JSON, max_size=4) | JSON},
        optional={"num_qubits": INTS | JSON, "constant": SCALARS},
    ),
    JSON,
)
NOISE = st.text(alphabet="p12ro=,.0123456789e-+naif", max_size=24) | st.builds(
    "p1={},p2={},ro={}".format,
    st.floats(0, 1) | st.floats(),
    st.floats(0, 1) | st.floats(),
    st.floats(0, 1) | st.floats(),
)
SOLVE = ["--p", "1", "--max-evals", "4", "--restarts", "1", "--shots", "8"]


def run_cli(argv, text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main([a.replace("{input}", str(path)) for a in argv])
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code
        return code, err.getvalue()


FUZZ = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@FUZZ
@given(
    graph=GRAPHS,
    command=st.sampled_from(
        [
            ["compile", "--graph", "{input}"],
            ["spectrum", "--graph", "{input}"],
            ["solve", "--graph", "{input}", *SOLVE],
        ]
    ),
)
def test_any_graph_file_exits_cleanly(graph, command):
    code, err = run_cli(command, json.dumps(graph))
    assert code in (0, 2, 3)
    assert "Traceback" not in err


@FUZZ
@given(
    terms=TERMS,
    noise=NOISE,
    command=st.sampled_from(
        [
            ["spectrum", "--terms", "{input}"],
            ["solve", "--terms", "{input}", *SOLVE],
            ["solve", "--terms", "{input}", *SOLVE, "--noise"],
        ]
    ),
)
def test_any_terms_file_or_noise_exits_cleanly(terms, noise, command):
    if command[-1] == "--noise":
        command = [*command, noise]
    code, err = run_cli(command, json.dumps(terms))
    assert code in (0, 2, 3)
    assert "Traceback" not in err
