"""The README commands against their golden outputs, byte for byte.

"Same behaviour" means that every README command exits as before and
writes the same stdout, stderr and files, byte for byte; the goldens
under tests/golden/ hold them (tests/golden_outputs.py rewrites them).
On a mismatch the test fails with the movement table: per output and
column, the largest absolute and relative change and the row where it
occurs.  The goldens record the numpy version they were written with.
Under another numpy version the bytes are still compared, and a
mismatch still fails: its message names both versions, since a
different BLAS or libm can move the last digits.
"""

import numpy as np
import pytest

import golden_outputs
from golden_outputs import (command_dir, compare, movement, read_golden, readme_commands,
                            run_command)


def test_readme_outputs_match_their_goldens(tmp_path):
    manifest, golden = read_golden()
    commands = readme_commands()
    assert [c["argv"] for c in manifest["commands"]] == commands, \
        "the README commands changed: rewrite the goldens"
    runs = [run_command(argv, tmp_path / command_dir(i, argv))
            for i, argv in enumerate(commands)]
    report = compare(manifest, golden, runs)
    if report:
        if np.__version__ != manifest["numpy"]:
            report.append(f"(goldens written with numpy {manifest['numpy']}, "
                          f"this run has numpy {np.__version__})")
        pytest.fail("README outputs moved:\n" + "\n".join(report), pytrace=False)


def test_readme_goldens_record_clean_runs():
    # every documented command passes its own gates: exit 0, nothing on
    # stderr (golden_outputs.py refuses to write goldens that record otherwise)
    manifest, golden = read_golden()
    for command, files in zip(manifest["commands"], golden):
        assert (command["exit"], files["stderr"]) == (0, b""), command["dir"]


def test_rewrite_refuses_a_failing_command(tmp_path, monkeypatch):
    # a bad exponent exits 2 with a message on stderr: no golden is written
    golden = tmp_path / "golden"
    monkeypatch.setattr(golden_outputs, "GOLDEN", golden)
    monkeypatch.setattr(golden_outputs, "readme_commands",
                        lambda: [["constants", "--n", "3", "--s", "2", "--q", "10"]])
    with pytest.raises(SystemExit, match="exit 2, stderr 'fracsphere constants:"):
        golden_outputs.rewrite(tmp_path / "runs")
    assert not golden.exists()


def test_movement_table_names_column_row_and_size():
    old = b"n,s,d\n3,2,\"[[0,1.0]]\"\n1,0.5,x\n\nrate 1.5, drift 4e-16\nn,s\n1,2\n2,4\n"
    new = b"n,s,d\n3,2.5,\"[[0,1.0]]\"\n1,0.5,y\n\nrate 1.5, drift 5e-16\nn,s\n1,2\n2,3\n"
    assert movement("stdout", old, new) == [
        "stdout [d]: 1 other cells differ, first row 3: 'x' -> 'y'",
        "stdout [number 2]: largest absolute 1.000e-16 (row 5), relative 2.500e-01 (row 5)",
        "stdout [s]: largest absolute 1.000e+00 (row 8), relative 2.500e-01 (row 2)",
    ]
    doc = movement("euclid.json", b'{"r": {"0": 1.0, "1": 2.0}, "s": "a"}',
                   b'{"r": {"0": 1.0, "1": 2.5}, "s": "b"}')
    assert doc == ["euclid.json [r.1]: largest absolute 5.000e-01 (row 1), "
                   "relative 2.500e-01 (row 1)",
                   "euclid.json [s]: 1 other cells differ, first row 1: '\"a\"' -> '\"b\"'"]
    # a roundoff cell of an O(1) column moves against 1e-12 of the column's scale
    assert movement("reports.csv", b"k,lhs\n1,8.3e-32\n2,0.5\n3,2.0\n",
                    b"k,lhs\n1,0.0\n2,0.5000000000000011\n3,2.0\n") == [
        "reports.csv [lhs]: largest absolute 1.110e-15 (row 3), relative 2.220e-15 (row 3)"]
    assert movement("flow.csv", b"t,e\n0,1\n", b"t,e\n0,1\n1,2\n") == [
        "flow.csv: 2 lines -> 3",
        "flow.csv [e]: 1 other cells differ, first row 3: None -> '2'",
        "flow.csv [t]: 1 other cells differ, first row 3: None -> '1'"]
