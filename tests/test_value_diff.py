import importlib.util
import json
import math
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "value_diff.py"
_spec = importlib.util.spec_from_file_location("value_diff", _SCRIPT)
value_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(value_diff)


def _tree(root: Path, files: dict) -> Path:
    """A cli_outputs.py tree: each command's output file and its .exit file."""
    root.mkdir()
    for name, text in files.items():
        (root / name).write_text(text)
    return root


def _report(value, passed=True, code=0):
    doc = {"config": {"seed": 3}, "pass": passed,
           "results": [{"index": 0, "ratio": value, "passed": passed}], "version": "0.1.0"}
    return {"01-verify.json": json.dumps(doc, indent=2) + "\n", "01-verify.exit": f"{code}\n"}


def _classes(tmp_path, old_files, new_files):
    diffs = value_diff.compare_trees(_tree(tmp_path / "old", old_files),
                                     _tree(tmp_path / "new", new_files))
    return {stem: [c[1] for c in changes] for stem, changes in diffs.items()}


@pytest.mark.parametrize("new,expected", [
    (1.0, []),
    (math.nextafter(1.0, 2.0), ["rounding"]),
    (1.0 - 4 * 2.0**-53, ["rounding"]),
    (1.0 - 5 * 2.0**-53, ["down"]),
    (1.0 + 5 * 2.0**-52, ["up"]),
    (2.25, ["up"]),
    (math.inf, ["non-numeric"]),
    ("1.0", ["non-numeric"]),
])
def test_a_changed_number_is_rounding_up_or_down(tmp_path, new, expected):
    assert _classes(tmp_path, _report(1.0), _report(new)) == {"01-verify": expected}


def test_a_changed_integer_is_a_count_and_never_the_worst_change(tmp_path):
    old, new = _report(1.0), _report(1.0 + 5 * 2.0**-52)
    for files, converged in ((old, 11), (new, 0)):
        doc = json.loads(files["01-verify.json"])
        doc["results"][0]["starts_converged"] = converged
        files["01-verify.json"] = json.dumps(doc)
    diffs = value_diff.compare_trees(_tree(tmp_path / "old", old), _tree(tmp_path / "new", new))
    assert [(c[0], c[1], c[2]) for c in diffs["01-verify"]] == [
        ("01-verify.json.results[0].ratio", "up", pytest.approx(5 * 2.0**-52)),
        ("01-verify.json.results[0].starts_converged", "count", None),
    ]
    line = value_diff.report(diffs).splitlines()[1]
    assert line.split()[:7] == ["01-verify", "0", "1", "0", "1", "0", "0"]
    assert "at 01-verify.json.results[0].ratio" in line
    # a bool is a flag, an integer that became a float a changed number
    assert value_diff.classify(True, False)[0] == "non-numeric"
    assert value_diff.classify(1, 1.5) == ("up", pytest.approx(1 / 3))
    assert value_diff.classify(3, 1) == ("count", None)


def test_a_flag_a_missing_key_and_a_missing_file_are_non_numeric(tmp_path):
    old = _report(1.0)
    new = _report(1.0, passed=False)
    doc = json.loads(new["01-verify.json"])
    del doc["version"]
    new["01-verify.json"] = json.dumps(doc)
    new["02-bounds.json"] = "{}\n"
    classes = _classes(tmp_path, old, new)
    assert classes == {"01-verify": ["non-numeric"] * 3, "02-bounds": ["non-numeric"]}


def test_a_changed_exit_code_is_its_own_class(tmp_path):
    assert _classes(tmp_path, _report(1.0), _report(1.0, code=1)) == {"01-verify": ["exit"]}


def test_csv_and_table_cells_are_compared_by_column(tmp_path):
    old = {"01-verify.csv": "index,ratio,passed\n0,1.0,true\n1,0.5,true\n",
           "02-verify.table": "index  ratio  passed\n0      1.0    true\n"}
    new = {"01-verify.csv": "index,ratio,passed\n0,1.0000000000000002,true\n1,0.75,false\n",
           "02-verify.table": "index  ratio               passed\n0      0.9999999999999    true\n"}
    diffs = value_diff.compare_trees(_tree(tmp_path / "old", old), _tree(tmp_path / "new", new))
    assert [(c[0], c[1]) for c in diffs["01-verify"]] == [
        ("01-verify.csv[0].ratio", "rounding"),
        ("01-verify.csv[1].passed", "non-numeric"),
        ("01-verify.csv[1].ratio", "up"),
    ]
    assert [(c[0], c[1]) for c in diffs["02-verify"]] == [("02-verify.table[0].ratio", "down")]


def test_a_usage_error_with_empty_output_compares_as_text(tmp_path):
    old = {"25-verify.json": "", "25-verify.exit": "2\n"}
    (tmp_path / "same").mkdir()
    assert _classes(tmp_path / "same", old, old) == {"25-verify": []}
    new = {"25-verify.json": "{}\n", "25-verify.exit": "0\n"}
    assert sorted(_classes(tmp_path, old, new)["25-verify"]) == ["exit", "non-numeric"]


def test_the_table_names_the_worst_change_and_the_script_exits_0(tmp_path, capsys):
    old = _tree(tmp_path / "old", {**_report(1.0), "02-bounds.json": '{"v": 3.0}\n'})
    new = _tree(tmp_path / "new", {**_report(1.5), "02-bounds.json": '{"v": 3.0}\n'})
    assert value_diff.main([str(old), str(new)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["command", *value_diff.CLASSES, "worst"]
    assert lines[1].split()[:6] == ["01-verify", "0", "1", "0", "0", "0"]
    assert "0.33 at 01-verify.json.results[0].ratio: 1.0 -> 1.5" in lines[1]
    assert lines[2].split()[1:] == ["0"] * len(value_diff.CLASSES) + ["-"]
    assert lines[-1] == "1 of 2 commands changed"


def test_a_tree_that_cannot_be_read_exits_2(tmp_path, capsys):
    old = _tree(tmp_path / "old", _report(1.0))
    assert value_diff.main([str(old), str(tmp_path / "absent")]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_a_changed_usage_error_is_one_non_numeric_change(tmp_path):
    usage = "usage: polarnorm [-h] [--version] {bounds,estimate} ...\n"
    old = {"35-bounds.json": "", "35-bounds.exit": "2\n",
           "35-bounds.err": usage + "polarnorm: error: unrecognized arguments: --restarts 5\n"}
    new = {**old, "35-bounds.err": "usage: polarnorm bounds [-h] [--pattern PATTERN]\n"
                                   "polarnorm bounds: error: unrecognized arguments: --restarts 5\n"}
    diffs = value_diff.compare_trees(_tree(tmp_path / "old", old), _tree(tmp_path / "new", new))
    assert diffs == {"35-bounds": [(
        "35-bounds.err", "non-numeric", None,
        "polarnorm: error: unrecognized arguments: --restarts 5",
        "polarnorm bounds: error: unrecognized arguments: --restarts 5",
    )]}
    (tmp_path / "same").mkdir()
    assert _classes(tmp_path / "same", old, old) == {"35-bounds": []}
