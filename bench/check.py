"""Exact comparison of results with the checked-in seed references.

Results are compared as sets, never as bytes:

* isolated points match exactly, masses and common cost;
* families pair up by support and dimension, and a pair matches when
  each family's affine hull (masses and cost) contains the other's,
  which is mutual containment of all exact members; one-parameter
  families must also have the same two end points;
* price reports match field by field: a field the reference marks exact
  must be exact and equal, a field it marks as an estimate must be
  within 1e-6 relative. A field may turn from estimate to exact, never
  the other way.

The linear algebra here is written out over Fractions so that a fault
in `nbg.linalg` cannot hide itself.
"""

from __future__ import annotations

from fractions import Fraction

from nbg import EquilibriumFamily, EquilibriumPoint

PRICE_FIELDS = ("optimum_u", "optimum_e", "best_equilibrium_cost",
                "worst_equilibrium_cost", "poa_u", "poa_e", "pos_u", "pos_e")
ESTIMATE_RTOL = 1e-6


class Mismatch(Exception):
    """A result differs from its reference."""


# ---------------------------------------------------------------------------
# canonical forms: plain tuples of Fractions


def _exact(value):
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise Mismatch(f"inexact scalar {value!r} in an exact result")
    return Fraction(value)


def _exact_vector(values):
    return tuple(_exact(v) for v in values)


def canonical_item(item):
    """One equilibrium (point or family) as a hashable exact tuple."""
    if isinstance(item, EquilibriumPoint):
        return ("point", _exact_vector(item.x.masses), _exact(item.cost))
    if isinstance(item, EquilibriumFamily):
        support = tuple(sorted(item.support))
        base = _exact_vector(item.base)
        directions = tuple(_exact_vector(d) for d in item.directions)
        cost_dirs = _exact_vector(item.cost_directions)
        interval = None if item.interval is None else _exact_vector(item.interval)
        return ("family", support, base, _exact(item.cost_base), directions,
                cost_dirs, interval)
    raise Mismatch(f"unexpected result item {type(item).__name__}")


def canonical_set(items):
    return [canonical_item(item) for item in items]


def canonical_price(report):
    fields = {}
    for name in PRICE_FIELDS:
        value = getattr(report, name)
        exact = bool(report.exact[name])
        fields[name] = (_exact(value) if exact else value, exact)
    return {"fields": fields,
            "equilibria": canonical_set(report.equilibria_used)}


# ---------------------------------------------------------------------------
# JSON encoding of canonical forms


def encode_scalar(value):
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return str(Fraction(value))
    return float(value)


def decode_scalar(value):
    return Fraction(value) if isinstance(value, str) else float(value)


def _vec(values, codec):
    return [codec(v) for v in values]


def encode_item(item):
    if item[0] == "point":
        _, masses, cost = item
        return {"point": _vec(masses, encode_scalar), "cost": encode_scalar(cost)}
    _, support, base, cost_base, directions, cost_dirs, interval = item
    return {"support": list(support), "base": _vec(base, encode_scalar),
            "cost_base": encode_scalar(cost_base),
            "directions": [_vec(d, encode_scalar) for d in directions],
            "cost_directions": _vec(cost_dirs, encode_scalar),
            "interval": None if interval is None else _vec(interval, encode_scalar)}


def decode_item(data):
    if "point" in data:
        return ("point", tuple(_vec(data["point"], decode_scalar)),
                decode_scalar(data["cost"]))
    interval = data["interval"]
    return ("family", tuple(data["support"]),
            tuple(_vec(data["base"], decode_scalar)),
            decode_scalar(data["cost_base"]),
            tuple(tuple(_vec(d, decode_scalar)) for d in data["directions"]),
            tuple(_vec(data["cost_directions"], decode_scalar)),
            None if interval is None else tuple(_vec(interval, decode_scalar)))


def encode_price(price):
    return {"fields": {name: {"value": encode_scalar(value), "exact": exact}
                       for name, (value, exact) in price["fields"].items()},
            "equilibria": [encode_item(item) for item in price["equilibria"]]}


def decode_price(data):
    return {"fields": {name: (decode_scalar(entry["value"]), entry["exact"])
                       for name, entry in data["fields"].items()},
            "equilibria": [decode_item(item) for item in data["equilibria"]]}


# ---------------------------------------------------------------------------
# comparison


def _rank(rows):
    """Rank over the rationals by plain Gaussian elimination."""
    m = [list(row) for row in rows]
    rank = 0
    width = len(m[0]) if m else 0
    for col in range(width):
        pivot = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(rank + 1, len(m)):
            if m[i][col] != 0:
                factor = m[i][col] / m[rank][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def _hull(family):
    """Base point and directions in (masses, cost) space."""
    _, _, base, cost_base, directions, cost_dirs, _ = family
    return (base + (cost_base,),
            [d + (c,) for d, c in zip(directions, cost_dirs)])


def _ends(family):
    point, (direction,) = _hull(family)
    return {tuple(p + t * d for p, d in zip(point, direction))
            for t in family[6]}


def same_family(got, want) -> bool:
    if got[1] != want[1] or len(got[4]) != len(want[4]):
        return False
    g_point, g_dirs = _hull(got)
    w_point, w_dirs = _hull(want)
    dim = len(w_dirs)
    shift = [a - b for a, b in zip(g_point, w_point)]
    if not (_rank(g_dirs) == _rank(w_dirs) == _rank(g_dirs + w_dirs)
            == _rank(w_dirs + [shift]) == dim):
        return False
    if dim == 1 and want[6] is not None:
        return got[6] is not None and _ends(got) == _ends(want)
    return True


def compare_sets(got, want):
    """Raise Mismatch unless the two canonical equilibrium sets agree."""
    got_points = {item for item in got if item[0] == "point"}
    want_points = {item for item in want if item[0] == "point"}
    if got_points != want_points:
        raise Mismatch(f"isolated points differ: {len(got_points - want_points)}"
                       f" unexpected, {len(want_points - got_points)} missing")
    unmatched = [item for item in got if item[0] == "family"]
    wanted = [item for item in want if item[0] == "family"]
    if len(unmatched) != len(wanted):
        raise Mismatch(f"{len(unmatched)} families, expected {len(wanted)}")
    for family in wanted:
        hit = next((g for g in unmatched if same_family(g, family)), None)
        if hit is None:
            raise Mismatch(f"no family matches the one on support {family[1]}")
        unmatched.remove(hit)


def compare_price(got, want):
    """Raise Mismatch unless two canonical price reports agree."""
    for name in PRICE_FIELDS:
        value, exact = got["fields"][name]
        ref, ref_exact = want["fields"][name]
        if ref_exact:
            if not exact or value != ref:
                raise Mismatch(f"{name}: {value!r} (exact={exact}), expected exact {ref}")
        elif abs(float(value) - float(ref)) > ESTIMATE_RTOL * abs(float(ref)):
            raise Mismatch(f"{name}: {float(value)!r}, expected about {float(ref)!r}")
    compare_sets(got["equilibria"], want["equilibria"])
