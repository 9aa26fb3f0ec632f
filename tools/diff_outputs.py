"""Which output cells a change moves, each REE move beside its certified gap.

Usage, from anywhere:

    python3 tools/diff_outputs.py PARENT CHANGE

PARENT and CHANGE are checkouts, for example ``git archive`` copies of two
commits.  For master seeds 1-4 and 15, ``python -m entqfi.cli --states 1000
--seed S`` runs in each checkout, with that checkout's ``src`` first on the
path, into a new temporary directory.  Per seed the tool then reports:

- for each file and column, the cells that differ and the largest printed
  move;
- the ``census.txt`` lines that moved: configuration and count lines,
  census rows and witness lines, by their key;
- for each moved ``ree`` cell of ``states.csv``, the raw move and the
  parent's certified gap ``ree(rho).gap``; the raw values come from
  ``run_experiment`` in one subprocess per checkout, since the files print
  12 significant digits, and the gaps from ``ree`` on each entangled state
  of the parent, drawn with ``derive_stream`` and ``random_density_matrix``;
- for each raw field of the records, ``RAW_FIELDS`` and then the twelve
  angles (``max_angles.alpha_a`` and so on), how many raw values moved and
  the largest move; ``ree``'s moves stand beside the parent's gaps too.

A seed on which no output byte and no raw value moved reports nothing.
The last line counts the moved ``ree`` cells of ``states.csv`` per seed
and says whether every raw ``ree`` move lies below the parent's gap.  The
exit status is 0 whatever moved.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = (1, 2, 3, 4, 15)
STATES = 1000
FILES = ("states.csv", "fig1_concurrence.csv", "fig1_negativity.csv", "fig1_ree.csv")
REPORT = "census.txt"

# The float fields of a record that the raw probe reads, before its angles.
RAW_FIELDS = (
    "ree",
    "concurrence",
    "negativity",
    "qfi_raw",
    "qfi_max",
    "qfi_min",
    "base_max_value",
    "base_min_value",
)

# Run in a checkout: each raw field of every state, the angles as
# "max_angles.alpha_a" and so on, and, with "gaps", the certified gap of
# every entangled state, as JSON keyed by field and state id.
_PROBE = """
import json, sys
from entqfi import (
    ExperimentConfig, derive_stream, random_density_matrix, ree, run_experiment,
)
seed, states, fields = int(sys.argv[1]), int(sys.argv[2]), json.loads(sys.argv[4])
records = run_experiment(ExperimentConfig(count=states, master_seed=seed)).records
raw = {name: {r.id: getattr(r, name) for r in records} for name in fields}
for angles in ("max_angles", "min_angles"):
    for k, name in enumerate(records[0].max_angles._fields):
        raw[f"{angles}.{name}"] = {r.id: getattr(r, angles)[k] for r in records}
raw["gap"] = {
    r.id: ree(random_density_matrix(derive_stream(seed, r.id))).gap
    for r in records
    if sys.argv[3] == "True" and not r.separable
}
print(json.dumps(raw))
"""


def _python(checkout: Path, args: list[str]) -> str:
    """Run ``python args`` in ``checkout/src``, with it first on the path
    too; its stdout."""
    src = checkout.resolve() / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    command = [sys.executable, *args]
    done = subprocess.run(command, cwd=src, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"diff_outputs: a run in {src} failed:\n{done.stderr[-2000:]}")
    return done.stdout


def run_outputs(checkout: Path, seed: int, states: int, out: Path) -> None:
    """``entqfi --states states --seed seed --out out`` in ``checkout``."""
    command = ["-m", "entqfi.cli", "--states", str(states), "--seed", str(seed)]
    _python(checkout, command + ["--out", str(out.resolve())])


def raw_values(checkout: Path, seed: int, states: int, gaps: bool) -> dict:
    """``{field: {id: value}}`` of a run in ``checkout``, each raw field
    and angle of every record, and ``"gap"``: ``{id: bits}``, only with
    ``gaps``, of its entangled states."""
    args = ["-c", _PROBE, str(seed), str(states), str(gaps), json.dumps(RAW_FIELDS)]
    raw = json.loads(_python(checkout, args))
    return {key: {int(k): v for k, v in values.items()} for key, values in raw.items()}


def _number(text: str):
    """The floats of a cell, ``;``-separated, or None if it holds text."""
    try:
        return [float(part) for part in text.split(";")]
    except ValueError:
        return None


def _move(old: str, new: str) -> float | None:
    """The largest printed move between two cells, None if not numbers."""
    a, b = _number(old), _number(new)
    if a is None or b is None or len(a) != len(b):
        return None
    return max(abs(x - y) for x, y in zip(a, b))


def diff_csv(parent: Path, change: Path) -> dict[str, list[tuple[str, str, str]]]:
    """For each column of two CSV files, its cells that differ as (row, old,
    new): rows named by their ``id`` cell where the file has one, else by
    their line number."""
    old_lines, new_lines = parent.read_text().splitlines(), change.read_text().splitlines()
    header = old_lines[0].split(",")
    moved: dict[str, list[tuple[str, str, str]]] = {}
    if new_lines[0] != old_lines[0] or len(new_lines) != len(old_lines):
        return {"(layout)": [("file", f"{len(old_lines)} lines", f"{len(new_lines)} lines")]}
    for number, (old, new) in enumerate(zip(old_lines[1:], new_lines[1:]), start=2):
        if old == new:
            continue
        old_cells, new_cells = old.split(","), new.split(",")
        row = f"id {old_cells[0]}" if header[0] == "id" else f"line {number}"
        for column, a, b in zip(header, old_cells, new_cells):
            if a != b:
                moved.setdefault(column, []).append((row, a, b))
    return moved


def _line_key(section: str, line: str) -> str:
    """What names a census.txt line: a setting's key, a census row's
    relation, or a witness line's cell and ids."""
    if section.startswith("[witnesses"):
        return " ".join(line.split()[:3])
    if section.startswith("[census"):
        return line.split()[0]
    return line.partition("=")[0]


def _sections(text: str) -> dict[tuple[str, str], str]:
    """Each nonblank, non-comment line of a census.txt, keyed by its
    section and ``_line_key``."""
    lines, section = {}, "settings"
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            section = line
            continue
        lines[(section, _line_key(section, line))] = line
    return lines


def diff_census(parent: Path, change: Path) -> list[tuple[str, str, str | None, str | None]]:
    """The census.txt lines that moved, as (section, key, old line, new
    line), None where the line is on one side only."""
    old, new = _sections(parent.read_text()), _sections(change.read_text())
    keys = list(old) + [key for key in new if key not in old]
    return [(*key, old.get(key), new.get(key)) for key in keys if old.get(key) != new.get(key)]


def _changes(old: str, new: str) -> str:
    """The fields that differ between two census.txt lines of one key, and
    the largest printed move of their values (after ``=`` where present)."""
    old_fields, new_fields = old.split(), new.split()
    if len(old_fields) != len(new_fields):
        return f"{old} -> {new}"
    changed = [(a, b) for a, b in zip(old_fields, new_fields) if a != b]
    moves = [_move(a.partition("=")[2] or a, b.partition("=")[2] or b) for a, b in changed]
    moves = [m for m in moves if m is not None]
    largest = f" (largest printed move {max(moves):.3g})" if moves else ""
    return ", ".join(f"{a} -> {b}" for a, b in changed) + largest


def diff_seed(parent_dir: Path, change_dir: Path, parent_raw: dict, change_raw: dict) -> list[str]:
    """The report lines of one seed, from both checkouts' output
    directories and ``raw_values``; empty if no output byte and no raw
    value moved."""
    lines = []
    for name in FILES:
        for column, cells in diff_csv(parent_dir / name, change_dir / name).items():
            moves = [m for m in (_move(a, b) for _, a, b in cells) if m is not None]
            largest = f", largest printed move {max(moves):.3g}" if moves else ""
            lines.append(f"  {name} {column}: {len(cells)} cells moved{largest}")
            if name == "states.csv" and column == "ree":
                lines += _ree_cells(cells, parent_raw, change_raw)
    for section, key, old, new in diff_census(parent_dir / REPORT, change_dir / REPORT):
        if old is None or new is None:
            side = "parent" if new is None else "change"
            lines.append(f"  {REPORT} {section} {key}: only in the {side}: {old or new}")
            continue
        lines.append(f"  {REPORT} {section} {key}: {_changes(old, new)}")
    moves = raw_moves(parent_raw, change_raw)
    if moves:
        ratios = [move / gap if gap else math.inf for move, gap in moves.values()]
        lines.append(
            f"  raw ree: {len(moves)} of {len(parent_raw['ree'])} values moved, largest"
            f" {max(move for move, _ in moves.values()):.3g} bits, at most {max(ratios):.3g}"
            f" of the parent's gap, {sum(r >= 1.0 for r in ratios)} at or above it"
        )
    for name in [name for name in parent_raw if name not in ("ree", "gap")]:
        moved = _field_moves(parent_raw[name], change_raw[name])
        if moved:
            lines.append(
                f"  raw {name}: {len(moved)} of {len(parent_raw[name])} values moved,"
                f" largest {max(moved.values()):.3g}"
            )
    return lines


def _field_moves(old: dict, new: dict) -> dict[int, float]:
    """Each state whose raw value moved between two ``{id: value}`` maps,
    with the size of the move."""
    return {k: abs(new[k] - value) for k, value in old.items() if new.get(k, value) != value}


def raw_moves(parent_raw: dict, change_raw: dict) -> dict[int, tuple[float, float | None]]:
    """Each state whose raw ree value moved: the move in bits and the
    parent's gap, None where the parent read the state as separable."""
    moved = _field_moves(parent_raw["ree"], change_raw["ree"])
    return {k: (move, parent_raw["gap"].get(k)) for k, move in moved.items()}


def _ree_cells(cells, parent_raw: dict, change_raw: dict) -> list[str]:
    """One line per moved ``ree`` cell: its raw move beside the parent's gap."""
    moves, lines = raw_moves(parent_raw, change_raw), []
    for row, a, b in cells:
        move, gap = moves.get(int(row.split()[1]), (0.0, None))
        against = f"parent gap {gap:.3g} bits ({move / gap:.3g} of it)" if gap else "no parent gap"
        lines.append(f"    {row}: {a} -> {b}, raw move {move:.3g} bits, {against}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.exit(__doc__)
    parent, change = (Path(arg) for arg in argv)
    counts, below = [], True
    with tempfile.TemporaryDirectory() as scratch:
        for seed in SEEDS:
            dirs = []
            for side, checkout in (("parent", parent), ("change", change)):
                out = Path(scratch) / f"{side}-{seed}"
                run_outputs(checkout, seed, STATES, out)
                dirs.append(out)
            parent_raw = raw_values(parent, seed, STATES, gaps=True)
            change_raw = raw_values(change, seed, STATES, gaps=False)
            lines = diff_seed(*dirs, parent_raw, change_raw)
            print("\n".join([f"seed {seed}:" + ("" if lines else " nothing moved")] + lines))
            moved = diff_csv(dirs[0] / "states.csv", dirs[1] / "states.csv").get("ree", [])
            counts.append(str(len(moved)))
            moves = raw_moves(parent_raw, change_raw).values()
            below &= all(gap is not None and move < gap for move, gap in moves)
    seeds = "/".join(map(str, SEEDS))
    print(
        f"moved ree cells of states.csv for seeds {seeds}: {'/'.join(counts)};"
        f" every raw ree move below the parent's gap: {'yes' if below else 'no'}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
