"""The paper's figure recipes in `paper/` load and run through the CLI."""

import csv
import json
import pathlib

import pytest

from rangesim.cli import main, parse_values

PAPER = pathlib.Path(__file__).resolve().parent.parent / "paper"

# per recipe: the swept column, its values, and the settings paper/README.md
# gives for it (stated and assumed alike)
RECIPES = {
    "fig_r": ("r", parse_values("0:10:1"), {"N": 20, "g": 10}),
    "fig_4_n": ("N", parse_values("5:45:5"), {"g": 7, "r": 2}),
    "fig_s1": ("g", parse_values("3:50:1"), {"N": 9, "r": 3}),
}


@pytest.mark.parametrize("name", sorted(RECIPES))
def test_recipe_runs_its_figures_sweep(name, tmp_path):
    recipe = json.loads((PAPER / f"{name}.json").read_text())
    assert (recipe["model"], recipe["rounds"], recipe["steps"], recipe["seed"]) == (
        "both", 100, 100, 1)
    swept, values, fixed = RECIPES[name]
    assert parse_values(recipe["values"]) == values
    out = tmp_path / f"{name}.csv"
    assert main(["sweep", "--config", str(PAPER / f"{name}.json"), "--rounds", "2",
                 "--steps", "5", "--no-small-world", "--out", str(out)]) == 0
    with out.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * len(values)
    assert [row["model"] for row in rows] == ["range", "null"] * len(values)
    assert {row["rounds"] for row in rows} == {"2"}
    assert {row["small_world_defined_count"] for row in rows} == {"0"}
    ranged, nulled = rows[::2], rows[1::2]
    assert [float(row[swept]) for row in ranged] == list(values)
    for column, value in fixed.items():
        assert {float(row[column]) for row in ranged} == {value}
    # each null cell takes p_connect = r/g of its range cell
    assert [float(row["p_connect"]) for row in nulled] == pytest.approx(
        [float(row["r"]) / float(row["g"]) for row in ranged])
    assert f"`{name}.json`" in (PAPER / "README.md").read_text()
