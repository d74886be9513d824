"""Import-graph guard, run in a fresh interpreter:

    python tests/import_guard.py

Importing ``asmarket`` and ``asmarket.cli`` and solving the toy10 2 h
relaxation must load no scipy module but the HiGHS extension
``scipy.optimize._highspy._core`` and its own submodules, and must not load
``concurrent.futures``: the library starts no worker pool. scipy's own HiGHS
interface must then still work, on that same extension module. Exits
non-zero, naming what failed, when any of these does not hold."""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))  # for conftest

import numpy as np  # noqa: E402

import asmarket  # noqa: E402, F401
import asmarket.cli  # noqa: E402, F401
from asmarket import lp  # noqa: E402
from asmarket.solve import solve_relaxed  # noqa: E402
from asmarket.ucmodel import EndogenousMax, build_uc  # noqa: E402
from conftest import toy10_scenario  # noqa: E402

CORE = "scipy.optimize._highspy._core"


def scipy_modules() -> list[str]:
    """Every loaded module whose name starts with ``scipy`` but the extension's."""
    return sorted(
        name for name in sys.modules
        if name.startswith("scipy") and name != CORE and not name.startswith(CORE + ".")
    )


def main() -> int:
    dispatch, _, _ = solve_relaxed(build_uc(toy10_scenario(2), EndogenousMax(), relaxed=True))
    assert np.isfinite(dispatch.objective), dispatch.objective
    extra = scipy_modules()
    if extra:
        print(f"asmarket imported scipy modules besides {CORE}: {extra}", file=sys.stderr)
        return 1
    if "concurrent.futures" in sys.modules:
        print("asmarket imported concurrent.futures", file=sys.stderr)
        return 1
    from scipy.optimize import linprog

    ref = linprog([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0], bounds=[(0, None)] * 2, method="highs")
    if ref.status != 0 or abs(ref.fun - 1.0) > 1e-12:
        print(f"scipy's linprog failed after asmarket's import: {ref.message}", file=sys.stderr)
        return 1
    import scipy.optimize._highspy._core as core

    if core is not lp._core or sys.modules[CORE] is not lp._core:
        print(f"scipy loaded a second {CORE}", file=sys.stderr)
        return 1
    print(f"import graph ok: toy10 2 h objective {dispatch.objective!r}, no scipy module but {CORE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
