"""Hand-written one-line source mutants, each run against the tests that
should kill it: a measure of whether the tests check what they run.

Each mutant names a file under ``src/pcbitalloc``, an exact text that must
occur there exactly once, its replacement and the test files to run. Each
runs in a temporary copy of ``src/``, ``tests/`` and ``pyproject.toml``; it
is killed when those tests fail. A mutant that survives on purpose names
its reason in ``SURVIVES``. A refactor that moves an anchor text updates
this list with the code.

    python tests/mutants.py              # every mutant, ~2-3 minutes
    python tests/mutants.py --anchors    # only check that each anchor occurs once
    python tests/mutants.py POLISH       # the mutants whose name contains POLISH

The exit status is 1 when an anchor does not occur exactly once or when a
mutant not in ``SURVIVES`` survives.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant("frontier rate tie-break", "allocator.py",
           "np.lexsort((rate, distortion.ravel()))", "np.lexsort((-rate, distortion.ravel()))",
           ("test_allocator.py",)),
    Mutant("POLISH_RADIUS", "allocator.py", "POLISH_RADIUS = 2", "POLISH_RADIUS = 1",
           ("test_allocator.py", "test_acceptance.py")),
    Mutant("rounding direction", "allocator.py",
           "i_g = min(bisect_left(_STEPS, continuous.q_g), last)",
           "i_g = max(min(bisect_left(_STEPS, continuous.q_g), last) - 1, 0)",
           ("test_allocator.py",)),
    Mutant("_ROOT_TOL", "allocator.py", "_ROOT_TOL = 2.0**-40", "_ROOT_TOL = 2.0**-10",
           ("test_allocator.py",)),
    Mutant("_past's inflation", "metrics.py",
           "return distance * (1.0 + 1e-9) + 1e-9", "return distance",
           ("test_metrics.py",)),
    Mutant("_exact_mean's overflow switch", "metrics.py",
           "if len(v) * int(v.max()) < 1 << 63:", "if True:",
           ("test_metrics.py",)),
    Mutant("tie-round minimum", "metrics.py",
           "nearest[rows] = np.minimum(nearest[rows], self._site_index[cand[-1, rows]])",
           "nearest[rows] = np.maximum(nearest[rows], self._site_index[cand[-1, rows]])",
           ("test_metrics.py",)),
    Mutant("coordinate limit's boundary", "metrics.py",
           "points.max() >= _COORD_LIMIT", "points.max() > _COORD_LIMIT",
           ("test_metrics.py",)),
    Mutant("squared distance rounded back", "metrics.py",
           "np.rint(best * best).astype(np.int64)", "(best * best).astype(np.int64)",
           ("test_metrics.py",)),
    Mutant("_distinct's smallest row", "metrics.py",
           "first = np.minimum.reduceat(order, np.flatnonzero(new_site))",
           "first = np.maximum.reduceat(order, np.flatnonzero(new_site))",
           ("test_metrics.py",)),
    Mutant("rd_curve's strict dedupe", "pipeline.py",
           "if not dedup or r > dedup[-1][0]:", "if not dedup or r >= dedup[-1][0]:",
           ("test_pipeline.py",)),
    Mutant("overhead subtraction", "pipeline.py",
           "budget = target - overhead", "budget = target",
           ("test_pipeline.py",)),
    Mutant("np.rint", "cloud.py", "np.rint(xyz, out=xyz)", "np.floor(xyz, out=xyz)",
           ("test_cloud.py",)),
    Mutant("_LEAST", "simcodec.py",
           "_LEAST = np.array([math.ulp(0.0), math.ulp(0.0), 0.0, 0.0])",
           "_LEAST = np.array([0.0, 0.0, 0.0, 0.0])",
           ("test_simcodec.py",)),
    Mutant("positive slack", "allocator.py", "if s > 0:", "if s > 1e-300:",
           ("test_allocator.py",)),
    Mutant("largest rate scale kept", "models.py",
           "if not _LN_FLOAT_MIN <= lg <= _LN_FLOAT_MAX:",
           "if not _LN_FLOAT_MIN <= lg < _LN_FLOAT_MAX:",
           ("test_models.py",)),
    Mutant("SCC capped at 1", "evaluate.py", "scc = min(r * r, 1.0)", "scc = r * r",
           ("test_metrics.py",)),
    Mutant("BD cubic's mean", "evaluate.py",
           "3 * c[0] + c[2] * (hi - lo) ** 2, 3 * det << j",
           "2 * c[0] + c[2] * (hi - lo) ** 2, 2 * det << j", ("test_evaluate.py",)),
    Mutant("BD too few distinct rates", "evaluate.py", "if len(set(logs)) < 4:", "if False:",
           ("test_evaluate.py",)),
    Mutant("one elimination step skipped", "models.py",
           "for row in m[k + 1:]:", "for row in m[k + 2:]:", ("test_models.py",)),
    Mutant("singular pivot unrefused", "models.py", "if top[k] == 0:", "if False:",
           ("test_models.py",)),
    Mutant("residual norm misscaled", "models.py", "det << 2 * k", "det << k",
           ("test_models.py",)),
)

# name -> why the tests cannot or need not kill it
SURVIVES: dict[str, str] = {}


def misplaced_anchors() -> list[str]:
    """One line per mutant whose old text does not occur exactly once."""
    bad = []
    for m in MUTANTS:
        count = (ROOT / "src" / "pcbitalloc" / m.file).read_text().count(m.old)
        if count != 1:
            bad.append(f"{m.name}: {m.file} holds its anchor {count} times")
    return bad


def survives(m: Mutant) -> bool:
    """Whether the mutant's tests pass on a temporary copy that carries it."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        shutil.copytree(ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tests", copy / "tests",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        path = copy / "src" / "pcbitalloc" / m.file
        path.write_text(path.read_text().replace(m.old, m.new))
        run = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                              *(f"tests/{t}" for t in m.tests)],
                             cwd=copy, env=dict(os.environ, PYTHONPATH=str(copy / "src")),
                             capture_output=True, text=True)
        return run.returncode == 0


def main(argv: list[str]) -> int:
    bad = misplaced_anchors()
    bad += [f"{name}: listed in SURVIVES but not a mutant"
            for name in set(SURVIVES) - {m.name for m in MUTANTS}]
    if bad or argv[:1] == ["--anchors"]:
        print("\n".join(bad) or f"{len(MUTANTS)} anchors each occur once")
        return 1 if bad else 0
    for m in MUTANTS:
        if argv and not any(part in m.name for part in argv):
            continue
        alive = survives(m)
        verdict = ("survived, accepted: " + SURVIVES[m.name]) if alive and m.name in SURVIVES \
            else "SURVIVED" if alive else "killed"
        print(f"{m.name} ({m.file}): {verdict}", flush=True)
        if alive and m.name not in SURVIVES:
            bad.append(m.name)
    if bad:
        print(f"{len(bad)} mutant(s) survived: {', '.join(bad)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
