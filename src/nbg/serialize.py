"""JSON input and output for games and mass distributions.

Game files look like:

    {
      "n": 3,
      "r": 1,
      "costs": [
        {"type": "affine", "a": 1, "b": 0},
        {"type": "poly", "coeffs": [0, 1, "1/2"]},
        {"type": "const", "b": "3/4"}
      ],
      "alpha": [[1, 2, "1/4"], [2, 3, "1/4"]],
      "symmetric": true
    }

Vertices are 1-indexed in files. Scalars may be ints, floats, or "p/q"
strings; any fraction string switches the instance to exact arithmetic.
When "symmetric" is true each unordered pair may be listed once and is
mirrored on load.
"""

from __future__ import annotations

import json

from . import numeric
from .errors import InputFormatError
from .games import (Game, InfluenceMatrix, MassDistribution, PolynomialCost,
                    affine, constant, distribution, polynomial)


def _parse_scalar(raw, where):
    try:
        return numeric.parse_scalar(raw)
    except ValueError as exc:
        raise InputFormatError(f"{where}: {exc}") from None


def _cost_from_dict(entry, where):
    if not isinstance(entry, dict) or "type" not in entry:
        raise InputFormatError(f"{where}: cost entry must be an object with a 'type'")
    kind = entry["type"]
    try:
        if kind == "const":
            return constant(numeric.parse_scalar(entry["b"]))
        if kind == "affine":
            return affine(numeric.parse_scalar(entry["a"]),
                          numeric.parse_scalar(entry["b"]))
        if kind == "poly":
            coeffs = entry["coeffs"]
            if not isinstance(coeffs, list) or not coeffs:
                raise InputFormatError(f"{where}: 'coeffs' must be a nonempty list")
            return polynomial(numeric.parse_scalar(c) for c in coeffs)
    except KeyError as exc:
        raise InputFormatError(f"{where}: missing field {exc}") from None
    except InputFormatError:
        raise
    except ValueError as exc:
        raise InputFormatError(f"{where}: {exc}") from None
    raise InputFormatError(f"{where}: unknown cost type {kind!r}")


def _cost_to_dict(form):
    """The file entry of a polynomial form, typed by its coefficient count."""
    if not isinstance(form, PolynomialCost):
        raise InputFormatError(
            f"cost form {type(form).__name__} has no file representation")
    coeffs = [numeric.scalar_to_json(c) for c in form.coeffs]
    if len(coeffs) == 1:
        return {"type": "const", "b": coeffs[0]}
    if len(coeffs) == 2:
        return {"type": "affine", "a": coeffs[1], "b": coeffs[0]}
    return {"type": "poly", "coeffs": coeffs}


def game_from_dict(data) -> Game:
    if not isinstance(data, dict):
        raise InputFormatError("game file must contain a JSON object")
    for key in ("n", "r", "costs", "alpha"):
        if key not in data:
            raise InputFormatError(f"game file is missing {key!r}")
    n = data["n"]
    # JSON true and false load as bool, a subclass of int
    if type(n) is not int or n <= 0:
        raise InputFormatError(f"'n' must be a positive integer, got {n!r}")
    r = _parse_scalar(data["r"], "'r'")
    costs = data["costs"]
    if not isinstance(costs, list) or len(costs) != n:
        raise InputFormatError(f"'costs' must list exactly n={n} entries")
    forms = [_cost_from_dict(entry, f"costs[{k}]") for k, entry in enumerate(costs)]
    symmetric = data.get("symmetric", False)
    if not isinstance(symmetric, bool):
        raise InputFormatError(f"'symmetric' must be true or false, got {symmetric!r}")
    entries = {}
    raw_alpha = data["alpha"]
    if not isinstance(raw_alpha, list):
        raise InputFormatError("'alpha' must be a list of [i, j, value] triples")
    for k, triple in enumerate(raw_alpha):
        where = f"alpha[{k}]"
        if not isinstance(triple, list) or len(triple) != 3:
            raise InputFormatError(f"{where}: expected [i, j, value]")
        i, j, raw = triple
        if not (type(i) is int and type(j) is int):
            raise InputFormatError(f"{where}: vertex ids must be integers")
        if not (1 <= i <= n and 1 <= j <= n) or i == j:
            raise InputFormatError(f"{where}: bad arc ({i}, {j}) for n={n}")
        value = _parse_scalar(raw, where)
        pairs = [(i - 1, j - 1), (j - 1, i - 1)] if symmetric else [(i - 1, j - 1)]
        for pair in pairs:
            if pair in entries and entries[pair] != value:
                raise InputFormatError(
                    f"{where}: conflicting values for arc {pair[0]+1}->{pair[1]+1}")
            entries[pair] = value
    try:
        influence = InfluenceMatrix(n, entries)
        return Game.graphical(n, r, forms, influence)
    except ValueError as exc:
        raise InputFormatError(str(exc)) from None


def game_to_dict(game: Game) -> dict:
    if game.kind != "graphical":
        raise InputFormatError("only graphical games have a file representation")
    symmetric = game.influence.is_symmetric
    alpha = []
    for (i, j), value in game.influence.items():
        if symmetric and i > j:
            continue
        alpha.append([i + 1, j + 1, numeric.scalar_to_json(value)])
    return {
        "n": game.n,
        "r": numeric.scalar_to_json(game.r),
        "costs": [_cost_to_dict(f) for f in game.vertex_costs],
        "alpha": alpha,
        "symmetric": symmetric,
    }


def _read_json(path):
    """The parsed content of a JSON file; bad JSON names the file and the
    position."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None


def load_game(path) -> Game:
    data = _read_json(path)
    try:
        return game_from_dict(data)
    except InputFormatError as exc:
        raise InputFormatError(f"{path}: {exc}") from None


def save_game(game: Game, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(game_to_dict(game), handle, indent=2)
        handle.write("\n")


def parse_masses(text: str) -> list:
    """Parse an inline comma-separated mass list like '3/4, 1/4, 0'."""
    parts = [p.strip() for p in text.split(",")]
    if not parts or any(not p for p in parts):
        raise InputFormatError(f"bad mass list: {text!r}")
    masses = []
    for part in parts:
        try:
            masses.append(parse_scalar_text(part))
        except InputFormatError as exc:
            raise InputFormatError(f"bad mass {part!r}: {exc}") from None
    return masses


def parse_scalar_text(text: str):
    """Read one scalar typed as text: an int, a float or 'p/q' with q > 0.

    Ints and fractions come back as Fraction, floats as float; anything
    else, or a non-finite float, raises InputFormatError.
    """
    try:
        return numeric.parse_scalar(_maybe_number(text.strip()))
    except ValueError as exc:
        raise InputFormatError(str(exc)) from None


def _maybe_number(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    if "/" not in text:
        try:
            return float(text)
        except ValueError:
            pass
    return text


def load_distribution(path, total=None) -> MassDistribution:
    """Read a distribution file: either a bare JSON list of masses or an
    object {"masses": [...], "total": ...}."""
    data = _read_json(path)
    if isinstance(data, dict):
        if "masses" not in data:
            raise InputFormatError(f"{path}: missing 'masses'")
        raw_masses = data["masses"]
        if total is None and "total" in data:
            total = _parse_scalar(data["total"], f"{path}: total")
    elif isinstance(data, list):
        raw_masses = data
    else:
        raise InputFormatError(f"{path}: expected a list or an object")
    if not isinstance(raw_masses, list):
        raise InputFormatError(f"{path}: 'masses' must be a list")
    masses = [_parse_scalar(m, f"{path}: masses[{k}]")
              for k, m in enumerate(raw_masses)]
    return distribution(masses, total) if total is not None else distribution(masses)


def save_distribution(dist: MassDistribution, path) -> None:
    data = {"masses": [numeric.scalar_to_json(m) for m in dist.masses],
            "total": numeric.scalar_to_json(dist.total)}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2)
        handle.write("\n")
