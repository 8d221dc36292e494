"""JSON round trips for games and distributions, plus format errors."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbg import (Game, InputFormatError, cost_vector, game_from_dict,
                 game_to_dict, load_distribution, load_game, parse_masses,
                 save_game)
from nbg import (FAMILY_KINDS, affine, braess_game, constant, distribution,
                 influence_from_triples, make_family, polynomial,
                 potential_maximum_game, stability_gap_game,
                 unbounded_anarchy_game, unique_nonstrong_game)
from nbg.serialize import parse_scalar_text
from util import random_affine_game, random_masses


class TestGameRoundTrip:
    def test_dict_round_trip_preserves_costs(self):
        rng = random.Random(14)
        for _ in range(50):
            n = rng.randint(1, 6)
            game = random_affine_game(rng, n)
            clone = game_from_dict(game_to_dict(game))
            assert clone.n == game.n
            assert clone.r == game.r
            assert clone.influence == game.influence
            for _ in range(3):
                masses = random_masses(rng, n)
                assert cost_vector(clone, masses) == cost_vector(game, masses)

    def test_file_round_trip(self, tmp_path):
        rng = random.Random(15)
        game = random_affine_game(rng, 4)
        path = tmp_path / "game.json"
        save_game(game, path)
        clone = load_game(path)
        assert game_to_dict(clone) == game_to_dict(game)
        text = path.read_text()
        assert text.endswith("\n")
        assert json.loads(text)["n"] == 4

    def test_symmetric_games_store_each_pair_once(self):
        inf = influence_from_triples(3, [(0, 1, Fraction(1, 2)), (1, 0, Fraction(1, 2))])
        game = Game.graphical(3, 1, [constant(1)] * 3, inf)
        data = game_to_dict(game)
        assert data["symmetric"] is True
        assert data["alpha"] == [[1, 2, "1/2"]]
        assert game_from_dict(data).influence == inf

    def test_fraction_strings_stay_exact(self):
        data = {"n": 1, "r": "3/2", "costs": [{"type": "const", "b": "1/3"}],
                "alpha": []}
        game = game_from_dict(data)
        assert game.r == Fraction(3, 2)
        assert game.vertex_costs[0].as_affine()[1] == Fraction(1, 3)
        assert game.exact

    def test_floats_stay_floats(self):
        data = {"n": 1, "r": 1, "costs": [{"type": "affine", "a": 0.5, "b": 0}],
                "alpha": []}
        game = game_from_dict(data)
        assert isinstance(game.vertex_costs[0].as_affine()[0], float)
        assert not game.exact
        assert isinstance(game.r, Fraction)

    def test_poly_costs(self):
        data = {"n": 1, "r": 1,
                "costs": [{"type": "poly", "coeffs": [0, 1, "1/2"]}], "alpha": []}
        game = game_from_dict(data)
        assert game.vertex_costs[0].value(2) == 4


GOLDEN = Path(__file__).parent / "golden"

#: file-form games whose saved bytes are pinned under tests/golden
GOLDEN_GAMES = {
    "family_path": lambda: make_family("path", Fraction(1, 2), n=5),
    "family_cycle": lambda: make_family("cycle", Fraction(1, 3), n=5),
    "family_complete_bipartite": lambda: make_family(
        "complete_bipartite", Fraction(1, 4), p=3, q=2),
    "family_star": lambda: make_family("star", 2, r=Fraction(3, 2), n=4),
    "braess": lambda: braess_game(Fraction(1, 2)),
    "unbounded_anarchy": lambda: unbounded_anarchy_game(3),
    "stability_gap": lambda: stability_gap_game(Fraction(1, 100)),
    "potential_maximum": potential_maximum_game,
    "unique_nonstrong": unique_nonstrong_game,
    "mixed_forms": lambda: Game.graphical(
        4, Fraction(5, 4),
        [constant(Fraction(3, 4)), affine(0.5, Fraction(1, 3)),
         polynomial([0, 1, Fraction(1, 2)]), affine(0, 2)],
        influence_from_triples(4, [(0, 1, Fraction(1, 4)), (1, 2, 0.25),
                                   (3, 0, 1), (2, 3, Fraction(2, 7))])),
}


class TestGoldenGameFiles:
    def test_every_family_kind_is_pinned(self):
        assert {f"family_{kind}" for kind in FAMILY_KINDS} <= set(GOLDEN_GAMES)

    @pytest.mark.parametrize("name", sorted(GOLDEN_GAMES))
    def test_saved_bytes_match(self, name, tmp_path):
        path = tmp_path / f"{name}.json"
        save_game(GOLDEN_GAMES[name](), path)
        assert path.read_bytes() == (GOLDEN / f"game_{name}.json").read_bytes()


class TestGameFormatErrors:
    def base(self):
        return {"n": 2, "r": 1,
                "costs": [{"type": "const", "b": 1}, {"type": "const", "b": 1}],
                "alpha": [[1, 2, "1/4"]]}

    def test_missing_keys(self):
        for key in ("n", "r", "costs", "alpha"):
            data = self.base()
            del data[key]
            with pytest.raises(InputFormatError, match=key):
                game_from_dict(data)

    def test_bad_n(self):
        for bad in (0, -1, "2", 1.5):
            data = self.base()
            data["n"] = bad
            with pytest.raises(InputFormatError):
                game_from_dict(data)

    def test_costs_length_must_match_n(self):
        data = self.base()
        data["costs"] = data["costs"][:1]
        with pytest.raises(InputFormatError, match="exactly n=2"):
            game_from_dict(data)

    def test_unknown_cost_type(self):
        data = self.base()
        data["costs"][0] = {"type": "cubic", "c": 1}
        with pytest.raises(InputFormatError, match="unknown cost type"):
            game_from_dict(data)

    def test_bad_alpha_triples(self):
        for bad in ([[1, 2]], [[0, 2, 1]], [[1, 1, 1]], [[1, 3, 1]],
                    [["1", 2, 1]], "not a list"):
            data = self.base()
            data["alpha"] = bad
            with pytest.raises(InputFormatError):
                game_from_dict(data)

    def test_conflicting_symmetric_values(self):
        data = self.base()
        data["symmetric"] = True
        data["alpha"] = [[1, 2, "1/4"], [2, 1, "1/2"]]
        with pytest.raises(InputFormatError, match="conflicting"):
            game_from_dict(data)

    def test_negative_alpha(self):
        data = self.base()
        data["alpha"] = [[1, 2, "-1/4"]]
        with pytest.raises(InputFormatError):
            game_from_dict(data)

    def test_general_games_not_serializable(self):
        with pytest.raises(InputFormatError):
            game_to_dict(Game.general(1, 1, [lambda x: 0]))

    def test_invalid_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\n  \"n\": 2,,\n}\n")
        with pytest.raises(InputFormatError, match="line 2"):
            load_game(path)


def half_valid(valid, other):
    """Draws from `valid` half the time (one_of would flatten the branches
    and weight them equally)."""
    return st.booleans().flatmap(lambda ok: valid if ok else other)


valid_scalars = st.one_of(
    st.integers(0, 10 ** 20),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(0, 50), st.integers(1, 50)),
    st.floats(min_value=0, allow_infinity=False),
)
json_scalars = half_valid(valid_scalars, st.one_of(
    st.integers(-3, 3),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-3, 3), st.integers(-2, 2)),
    st.floats(),
    st.booleans(),
    st.lists(st.integers(0, 3), max_size=2),
    st.sampled_from(["", "x", "1.5", " 2 ", "1_0/3", None]),
))


def typed_entries(scalars):
    return st.one_of(
        st.builds(lambda b: {"type": "const", "b": b}, scalars),
        st.builds(lambda a, b: {"type": "affine", "a": a, "b": b}, scalars, scalars),
        st.builds(lambda cs: {"type": "poly", "coeffs": cs},
                  st.lists(scalars, max_size=4)))


cost_entries = half_valid(typed_entries(valid_scalars), st.one_of(
    typed_entries(json_scalars),
    st.fixed_dictionaries({}, optional={"type": st.sampled_from(
        ["const", "affine", "poly", "cubic", 1]), "a": json_scalars,
        "b": json_scalars, "coeffs": json_scalars}),
    json_scalars,
))


@settings(max_examples=300)
@given(st.lists(cost_entries, min_size=1, max_size=3))
def test_cost_entries_load_or_fail_cleanly(entries):
    n = len(entries)
    data = {"n": n, "r": 1, "costs": entries,
            "alpha": [[1, n, "1/2"]] if n > 1 else [], "symmetric": True}
    try:
        game = game_from_dict(data)
    except InputFormatError:
        return
    text = json.dumps(game_to_dict(game))
    assert game_from_dict(json.loads(text)) == game


class TestMassIO:
    def test_parse_masses(self):
        assert parse_masses("3/4, 1/4, 0") == [Fraction(3, 4), Fraction(1, 4),
                                               Fraction(0)]
        assert parse_masses("0.5,0.5") == [0.5, 0.5]
        assert parse_masses("1") == [Fraction(1)]

    def test_parse_scalar_text(self):
        assert parse_scalar_text(" 3/4 ") == Fraction(3, 4)
        assert parse_scalar_text("1_0") == Fraction(10)
        assert isinstance(parse_scalar_text("-0"), Fraction)
        assert isinstance(parse_scalar_text("2.5"), float)
        for bad in ("1_0/3", "1/0", "3/-4", "nan", "inf", "1e400", "0x10",
                    "", "abc"):
            with pytest.raises(InputFormatError):
                parse_scalar_text(bad)

    def test_parse_masses_errors(self):
        for bad in ("", "1,,2", "a,b", "1/2, x"):
            with pytest.raises(InputFormatError):
                parse_masses(bad)

    def test_distribution_file_round_trip(self, tmp_path):
        path = tmp_path / "dist.json"
        path.write_text(json.dumps({"masses": ["1/3", "2/3"], "total": 1}))
        loaded = load_distribution(path)
        assert loaded.masses == (Fraction(1, 3), Fraction(2, 3))
        assert loaded.total == 1

    def test_bare_list_form(self, tmp_path):
        path = tmp_path / "bare.json"
        path.write_text("[\"1/4\", \"3/4\"]\n")
        loaded = load_distribution(path)
        assert loaded.masses == (Fraction(1, 4), Fraction(3, 4))
        assert loaded.total == 1

    def test_distribution_file_errors(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\"weights\": [1]}\n")
        with pytest.raises(InputFormatError, match="masses"):
            load_distribution(path)
        path.write_text("42\n")
        with pytest.raises(InputFormatError):
            load_distribution(path)
