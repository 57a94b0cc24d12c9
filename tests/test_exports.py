"""The package's export list and import-time dependencies."""

import os
import subprocess
import sys

import misstab

REMOVED = (
    "DF_CONVENTIONS",
    "DF_MULTINOMIAL",
    "aic_bic",
    "g_squared",
    "membership",
    "nonresponse_odds",
    "response_odds",
)


def test_every_export_resolves():
    for name in misstab.__all__:
        getattr(misstab, name)  # AttributeError if the name is missing


def test_removed_names_are_not_exported():
    for name in REMOVED:
        assert name not in misstab.__all__
        assert not hasattr(misstab, name)


def _modules_loaded_by_misstab(package: str) -> str:
    """The modules of package that importing misstab and its CLI loads in
    a fresh interpreter, beyond those importing numpy loads."""
    code = (
        "import sys, numpy; "
        f"pkg = {package!r}; "
        "mods = lambda: {m for m in sys.modules "
        "if m == pkg or m.startswith(pkg + '.')}; "
        "before = mods(); "
        "import misstab, misstab.cli; "
        "print(sorted(mods() - before))"
    )
    src = os.path.dirname(os.path.dirname(misstab.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
        env=env,
    )
    return out.stdout.strip()


def test_import_loads_no_scipy():
    # scipy is a test oracle only; importing it costs a third of a second
    # and tens of MiB in every process that imports misstab
    assert _modules_loaded_by_misstab("scipy") == "[]"


def test_import_loads_no_numpy_random():
    # numpy.random costs about 40 ms to import and only a bootstrap needs
    # it; numpy before 2.0 imports it with numpy itself, so only what
    # misstab adds is counted
    assert _modules_loaded_by_misstab("numpy.random") == "[]"
