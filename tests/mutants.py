"""Textual mutants of `src/bmtrunc` that the tests must kill.

Each mutant names a file under `src/bmtrunc`, an old string that must occur
there exactly once, the new string that replaces it, and the test modules
that must fail on the mutated copy.  A mutant that every test passes is a
missing test, unless it is equivalent: no input tells it apart from the
library.  An equivalent mutant stays off the list, and this docstring
gives the proof; none is known yet.

Run from anywhere, with the standard library and pytest only:

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

The runner first runs the named modules on an unmutated copy of `src/`,
which must pass.  Then, per mutant, it copies `src/` to a temporary
directory, applies the mutant, and runs its modules against the copy with
`python -m pytest -q -x`.  It prints each mutant's outcome and time, and
exits nonzero where an old string does not match exactly once, the
unmutated copy fails, or a mutant survives.  A killed mutant's line names
the first test that failed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    modules: tuple


MUTANTS = [
    # a run may hold a whole largest corner instead of half of one
    Mutant("run_budget", "solve.py",
           "** 2 // 2", "** 2 // 1",
           ("tests/test_solve.py",)),
    # each pivot's fill starts one row below the first row that reaches it
    Mutant("eliminate_first_row", "solve.py",
           "rows = np.minimum.accumulate(into.argmax(axis=0)).tolist()",
           "rows = (np.minimum.accumulate(into.argmax(axis=0)) + 1).tolist()",
           ("tests/test_solve.py",)),
    # the block-monotone scan stops one column short of each row pair's reach
    Mutant("monotone_scan_column", "order.py",
           "valid = np.arange(table.shape[1]) <= col_top",
           "valid = np.arange(table.shape[1]) < col_top",
           ("tests/test_order.py",)),
    # the dominance scan stops one column short of either row's reach
    Mutant("dominance_scan_column", "order.py",
           "valid = np.arange(shape[1]) <= col_top",
           "valid = np.arange(shape[1]) < col_top",
           ("tests/test_order.py",)),
    # a model row's reach ends on its last band column instead of one past it
    Mutant("reach_band", "order.py",
           "M.band(k)[1] + 1", "M.band(k)[1] + 0",
           ("tests/test_order.py",)),
    # a finite matrix's reach ends on its last level instead of one past it
    Mutant("reach_finite", "order.py",
           "np.full(rows, M.n + 1)", "np.full(rows, M.n + 0)",
           ("tests/test_order.py",)),
    # the dominance scan reads a model one row short of its check level
    Mutant("check_depth_model", "order.py",
           "        return M.bm_check_level()\n",
           "        return M.bm_check_level() - 1\n",
           ("tests/test_order.py",)),
    # the dominance scan reads a finite matrix one row short of its top level
    Mutant("check_depth_finite", "order.py",
           "        return M.n\n    raise IncompatibleModels",
           "        return M.n - 1\n    raise IncompatibleModels",
           ("tests/test_order.py",)),
]


def _copy_src(into: Path) -> Path:
    src = into / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def _apply(src: Path, mutant: Mutant) -> None:
    path = src / "bmtrunc" / mutant.path
    text = path.read_text()
    found = text.count(mutant.old)
    if found != 1:
        raise SystemExit(f"{mutant.name}: old string matches {found} times in {mutant.path}")
    path.write_text(text.replace(mutant.old, mutant.new))


def _pytest(src: Path, modules) -> str | None:
    """None where the modules pass against the bmtrunc under src, else
    pytest's first failure line."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    where = subprocess.run([sys.executable, "-c", "import bmtrunc; print(bmtrunc.__file__)"],
                           cwd=ROOT, env=env, capture_output=True, text=True, check=True)
    if not Path(where.stdout.strip()).is_relative_to(src):
        raise SystemExit(f"imported bmtrunc from {where.stdout.strip()}, not {src}")
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           *modules], cwd=ROOT, env=env, capture_output=True, text=True)
    if done.returncode == 0:
        return None
    failed = [line for line in done.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    return failed[0] if failed else f"pytest exit {done.returncode}"


def main(names) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        raise SystemExit(f"no mutant named {', '.join(sorted(unknown))}")
    modules = sorted({module for m in chosen for module in m.modules})
    survivors = []
    started = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        failure = _pytest(_copy_src(Path(tmp)), modules)
    if failure is not None:
        print(f"the unmutated copy fails: {failure}")
        return 1
    print(f"unmutated copy passes {' '.join(modules)} "
          f"({time.perf_counter() - started:.1f} s)", flush=True)
    for mutant in chosen:
        started = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            src = _copy_src(Path(tmp))
            _apply(src, mutant)
            failure = _pytest(src, mutant.modules)
        outcome = "SURVIVED" if failure is None else f"killed by {failure}"
        print(f"{mutant.name}: {outcome} ({time.perf_counter() - started:.1f} s)", flush=True)
        if failure is None:
            survivors.append(mutant.name)
    if survivors:
        print(f"survivors: {', '.join(survivors)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
