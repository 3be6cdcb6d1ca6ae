"""scripts/compare_runs.py: worst per-column difference of two output
trees and its exit code."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "compare_runs",
    Path(__file__).resolve().parent.parent / "scripts" / "compare_runs.py")
compare_runs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_runs)


def _tree(root, text, notes=None):
    """An output tree of one CSV, with a manifest holding ``notes`` unless
    they are None."""
    path = root / "blocking" / "blocking.csv"
    path.parent.mkdir(parents=True)
    path.write_text(text)
    if notes is not None:
        (path.parent / "blocking.manifest.json").write_text(json.dumps(
            {"notes": notes, "wall_time_s": len(str(root))}))
    return root


HEAD = "h (len),I12_total (hbar*c/len^4),trunc_est (hbar*c/len^4)\n"


@pytest.mark.parametrize("new_rows,code,shown", [
    ("0.5,2.0,nan\n1.0,-4.0,nan\n", 0, "0.00e+00"),
    # 5e-13 of the column max |-4| passes the default tolerance 1e-12
    ("0.5,2.0,nan\n1.0,-4.000000000002,nan\n", 0, "5.00e-13"),
    ("0.5,2.1,nan\n1.0,-4.0,nan\n", 1, "2.50e-02"),
    # a value finite on one side only is an infinite difference
    ("0.5,2.0,0.1\n1.0,-4.0,nan\n", 1, "inf"),
    ("0.5,2.0,nan\n", 1, "row count"),
])
def test_exit_code_and_report(tmp_path, capsys, new_rows, code, shown):
    old = _tree(tmp_path / "old", HEAD + "0.5,2.0,nan\n1.0,-4.0,nan\n")
    new = _tree(tmp_path / "new", HEAD + new_rows)
    assert compare_runs.main([str(old), str(new)]) == code
    assert shown in capsys.readouterr().out


def test_missing_csv_fails(tmp_path, capsys):
    old = _tree(tmp_path / "old", HEAD + "0.5,2.0,nan\n")
    (tmp_path / "new").mkdir()
    assert compare_runs.main([str(old), str(tmp_path / "new")]) == 1
    assert "missing" in capsys.readouterr().out


def test_identical_bytes_are_marked(tmp_path, capsys):
    rows = HEAD + "0.5,2.0,nan\n1.0,-4.0,nan\n"
    old = _tree(tmp_path / "old", rows)
    new = _tree(tmp_path / "new", rows)
    assert compare_runs.main([str(old), str(new)]) == 0
    assert capsys.readouterr().out.split() == [
        "blocking/blocking.csv:", "0.00e+00", "ok", "identical"]


@pytest.mark.parametrize("new_rows", [
    # the same numbers written differently
    "0.5,2.00,nan\n1.0,-4.0,nan\n",
    "0.5,2.0,nan\n1.0,-4.0,NaN\n",
    # a difference inside the tolerance
    "0.5,2.0,nan\n1.0,-4.000000000002,nan\n",
])
def test_different_bytes_are_not_identical(tmp_path, capsys, new_rows):
    old = _tree(tmp_path / "old", HEAD + "0.5,2.0,nan\n1.0,-4.0,nan\n")
    new = _tree(tmp_path / "new", HEAD + new_rows)
    assert compare_runs.main([str(old), str(new)]) == 0
    out = capsys.readouterr().out
    assert " ok" in out
    assert "identical" not in out


@pytest.mark.parametrize("old_notes,new_notes,mark", [
    # the notes match; the rest of the manifest (timings) may differ
    (["channels [12]: T1:LL T2:LL"], ["channels [12]: T1:LL T2:LL"],
     "identical"),
    (["channels [12]: T1:LL T2:LL"], ["channels [12]: T1:RL T2:LL"],
     "notes differ"),
    (["anchor 1.0"], None, "notes differ"),
    (None, None, "identical"),
])
def test_identical_takes_the_manifest_notes(tmp_path, capsys, old_notes,
                                            new_notes, mark):
    rows = HEAD + "0.5,2.0,nan\n1.0,-4.0,nan\n"
    old = _tree(tmp_path / "old", rows, old_notes)
    new = _tree(tmp_path / "new_tree", rows, new_notes)
    assert compare_runs.main([str(old), str(new)]) == 0
    out = capsys.readouterr().out
    assert out.split()[:3] == ["blocking/blocking.csv:", "0.00e+00", "ok"]
    assert out.rstrip().endswith(mark)
    assert ("identical" in out) == (mark == "identical")
