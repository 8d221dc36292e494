"""Game files fuzzed through the command line.

Hypothesis writes small well-formed game files (n <= 4) and mutates them:
keys dropped or retyped, scalars made negative, huge or tiny, and arcs
made bad. Each file goes through `verify`, `solve`, `metrics` and
`dynamics` in process. Every run must return 0, 1 or 2 with no exception
escaping `main`, and exit 2 must print nothing on stdout and exactly one
stderr line, starting with "error:".
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nbg.cli import main

HUGE = "1" + "0" * 400

#: values a mutation puts in place of any part of a game file
REPLACEMENTS = [
    None, True, False, "x", "", [], {}, 0, -1, 2.5, -0.5, "-1/2", "1/0",
    HUGE, "-" + HUGE, "1/" + HUGE, 10 ** 400, 1e300, 1e-300, 5e-324,
    [1, 2, "1/2"], {"type": "poly", "coeffs": [0, 0, 1]},
    {"type": "bogus"},
]

#: arcs that name no valid pair of distinct vertices, or are not triples
BAD_ARCS = [[1, 1, "1/2"], [0, 1, "1/2"], [1, 5, "1/2"], [1.0, 2, 1],
            [1, 2], [1, 2, 3, 4], "1->2", [-1, 2, 1]]

scalars = st.one_of(st.integers(0, 3), st.sampled_from(["1/2", "3/4", 0.25]))


@st.composite
def well_formed_games(draw):
    n = draw(st.integers(1, 4))

    def cost():
        kind = draw(st.sampled_from(["const", "affine", "poly"]))
        if kind == "const":
            return {"type": "const", "b": draw(scalars)}
        if kind == "affine":
            return {"type": "affine", "a": draw(scalars), "b": draw(scalars)}
        return {"type": "poly", "coeffs": draw(st.lists(scalars, min_size=1,
                                                        max_size=3))}

    arcs = [[i, j, draw(scalars)] for i in range(1, n + 1)
            for j in range(1, n + 1) if i != j and draw(st.booleans())]
    return {"n": n, "r": draw(st.sampled_from([1, 2, "1/2", 0.5])),
            "costs": [cost() for _ in range(n)], "alpha": arcs,
            "symmetric": draw(st.booleans())}


def locations(node, prefix=()):
    """Every path of keys and indices into a JSON value."""
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from locations(value, prefix + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from locations(value, prefix + (index,))


@st.composite
def mutated_games(draw):
    data = draw(well_formed_games())
    for _ in range(draw(st.integers(0, 2))):
        action = draw(st.sampled_from(["replace", "delete", "bad arc"]))
        if action == "bad arc" and isinstance(data.get("alpha"), list):
            data["alpha"].append(draw(st.sampled_from(BAD_ARCS)))
            continue
        path = draw(st.sampled_from(list(locations(data))[1:]))
        parent = data
        for step in path[:-1]:
            parent = parent[step]
        if action == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(st.sampled_from(REPLACEMENTS))
    return data


def run(*args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in args])
    return code, out.getvalue(), err.getvalue()


def dist_text(data):
    """A point mass on the first vertex, or a stand-in when the file has
    no usable size or total."""
    n, r = data.get("n"), data.get("r")
    if type(n) is not int or not 1 <= n <= 4 or not isinstance(r, (int, float, str)):
        return "1"
    return ",".join([str(r)] + ["0"] * (n - 1))


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated_games())
def test_game_files_exit_cleanly(data):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "game.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        for args in (("verify", path, f"--dist={dist_text(data)}"),
                     ("solve", path), ("metrics", path),
                     ("dynamics", path, "--steps=3")):
            code, out, err = run(*args)
            assert code in (0, 1, 2), (args[0], code)
            if code == 2:
                assert out == "", (args[0], out)
                lines = err.splitlines()
                assert len(lines) == 1 and lines[0].startswith("error:"), err
