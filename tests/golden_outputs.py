"""Golden outputs of the README commands, and the movement between two runs.

The seven `fracsphere` commands of the README's sh blocks run in-process
through cli.main, each in an empty directory and with the quadrature
rule cache cleared, as in a new process (verify prints how many rules it
built).  Their exit codes, stdout, stderr and written files are kept
under tests/golden/, one directory per command, with manifest.json
naming the commands and the numpy and Python versions they were
written with.  tests/test_golden.py compares a fresh run with them byte
for byte.

To rewrite the goldens after a change that moves bytes on purpose, run
from the repository root

    PYTHONPATH=src python tests/golden_outputs.py

and record the movement table it prints in CHANGES.md.
"""

import contextlib
import io
import json
import math
import os
import platform
import re
import shlex
import shutil
import tempfile
from pathlib import Path

import numpy as np

from fracsphere import cli, specfun

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
STREAMS = ("stdout", "stderr")
HEADER = re.compile(r"[A-Za-z_]\w*(?:,[A-Za-z_]\w*)+")    # a CSV header line
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:nan|inf)\b")


def readme_commands():
    """The argv of every fracsphere command in the README's sh blocks."""
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```sh\n(.*?)```", readme, re.S)
    return [shlex.split(line)[1:] for block in blocks
            for line in block.splitlines() if line.startswith("fracsphere ")]


def command_dir(i, argv):
    return f"{i + 1}-{argv[0]}"


def run_command(argv, where):
    """Run one command in the empty directory where: (exit code,
    {name: bytes}) for stdout, stderr and every file it wrote."""
    where.mkdir(parents=True)
    specfun._build_rule.cache_clear()      # as in a new process
    out, err, cwd = io.StringIO(), io.StringIO(), os.getcwd()
    os.chdir(where)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    finally:
        os.chdir(cwd)
    files = {p.name: p.read_bytes() for p in sorted(where.iterdir())}
    files.update((name, s.getvalue().encode()) for name, s in zip(STREAMS, (out, err)))
    return rc, files


def read_golden():
    """The manifest and, per command, {name: bytes} of its golden files."""
    manifest = json.loads((GOLDEN / "manifest.json").read_text())
    outputs = [{p.name: p.read_bytes() for p in (GOLDEN / c["dir"]).iterdir()}
               for c in manifest["commands"]]
    return manifest, outputs


# ---------------------------------------------------------------------------
# the movement between two versions of one output


def _cells(name, text):
    """{(column, row): string} of one output.  JSON leaves are keyed by
    their path; a comma-separated line under a header line of as many
    fields by the header's names (the last field takes any further
    commas); a line of other text by the position
    of each number in it.  Rows are line numbers, from 1."""
    if name.endswith(".json"):
        out = {}

        def walk(path, value):
            if isinstance(value, dict):
                for k, v in value.items():
                    walk(f"{path}.{k}" if path else k, v)
            elif isinstance(value, list):
                for i, v in enumerate(value):
                    walk(f"{path}[{i}]", v)
            else:
                out[path, 1] = json.dumps(value)
        walk("", json.loads(text))
        return out
    out, header = {}, None
    for row, line in enumerate(text.splitlines(), 1):
        if HEADER.fullmatch(line):
            header = line.split(",")
            continue
        # the last column may hold commas: the descriptors of reports.csv
        fields = line.split(",", len(header) - 1) if header else []
        if header and len(fields) == len(header):
            out.update(((h, row), f) for h, f in zip(header, fields))
        else:
            header = None
            for j, token in enumerate(NUMBER.findall(line)):
                out[f"number {j + 1}", row] = token
    return out


def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


def movement(name, old, new):
    """Lines of the movement table of one output: per column, the
    largest absolute and relative change of its numbers, with the row
    where each occurs, and the count of other cells that differ.  A
    change is relative to max(|old|, 1e-12 times the column's largest
    |old|), so a roundoff-level cell that moves to 0 does not read as 1."""
    old, new = old.decode(), new.decode()
    lines = []
    rows = [len(text.splitlines()) for text in (old, new)]
    if rows[0] != rows[1]:
        lines.append(f"{name}: {rows[0]} lines -> {rows[1]}")
    try:
        a, b = _cells(name, old), _cells(name, new)
    except ValueError as exc:          # JSON that no longer parses
        return lines + [f"{name}: cannot compare cells: {exc}"]
    scale = {}
    for (column, _), text in a.items():
        x = _number(text)
        if x is not None and math.isfinite(x):
            scale[column] = max(scale.get(column, 0.0), abs(x))
    columns = {}
    for key in sorted(set(a) | set(b), key=lambda k: (str(k[0]), k[1])):
        if a.get(key) == b.get(key):
            continue
        col = columns.setdefault(key[0], {"abs": (0.0, None), "rel": (0.0, None), "text": []})
        x, y = _number(a.get(key, "")), _number(b.get(key, ""))
        if x is None or y is None or not (math.isfinite(x) and math.isfinite(y)):
            col["text"].append(f"row {key[1]}: {a.get(key)!r} -> {b.get(key)!r}")
            continue
        d = abs(y - x)
        floor = max(abs(x), 1e-12 * scale[key[0]])
        r = d / floor if floor else math.inf
        col["abs"] = max(col["abs"], (d, key[1]), key=lambda t: t[0])
        col["rel"] = max(col["rel"], (r, key[1]), key=lambda t: t[0])
    for column, col in columns.items():
        if col["abs"][1] is not None:
            lines.append(f"{name} [{column}]: largest absolute {col['abs'][0]:.3e} "
                         f"(row {col['abs'][1]}), relative {col['rel'][0]:.3e} "
                         f"(row {col['rel'][1]})")
        if col["text"]:
            lines.append(f"{name} [{column}]: {len(col['text'])} other cells differ, "
                         f"first {col['text'][0]}")
    if not lines:
        lines.append(f"{name}: bytes differ, no cell moved (whitespace or line ends)")
    return lines


def compare(manifest, golden, runs):
    """The movement table of fresh runs against the goldens, [] when
    every exit code and every byte agree."""
    report = []
    for command, want, (rc, got) in zip(manifest["commands"], golden, runs):
        label = f"{command['dir']} (fracsphere {shlex.join(command['argv'])})"
        if rc != command["exit"]:
            report.append(f"{label}: exit {command['exit']} -> {rc}")
        for name in sorted(set(want) | set(got)):
            if name not in got or name not in want:
                report.append(f"{label}: {name} {'missing' if name in want else 'new'}")
            elif want[name] != got[name]:
                report += [f"{label}: {line}" for line in movement(name, want[name], got[name])]
    return report


def rewrite(scratch):
    """Run every README command in scratch and write the goldens from it."""
    commands = readme_commands()
    runs = [run_command(argv, scratch / command_dir(i, argv))
            for i, argv in enumerate(commands)]
    old = read_golden() if (GOLDEN / "manifest.json").exists() else None
    shutil.rmtree(GOLDEN, ignore_errors=True)
    manifest = {"numpy": np.__version__, "python": platform.python_version(),
                "commands": [{"argv": argv, "dir": command_dir(i, argv), "exit": rc}
                             for i, (argv, (rc, _)) in enumerate(zip(commands, runs))]}
    for command, (_, files) in zip(manifest["commands"], runs):
        where = GOLDEN / command["dir"]
        where.mkdir(parents=True)
        for name, data in files.items():
            (where / name).write_bytes(data)
    (GOLDEN / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    if old is not None and [c["argv"] for c in old[0]["commands"]] == commands:
        return compare(old[0], old[1], runs)
    return ["no earlier goldens for these commands"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        print("\n".join(rewrite(Path(tmp))) or "no output moved")
