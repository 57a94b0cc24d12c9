"""The package's export list and import-time dependencies."""

import os
import subprocess
import sys

import misstab

REMOVED = (
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


def test_import_loads_no_scipy():
    # scipy is a test oracle only; importing it costs a third of a second
    # and tens of MiB in every process that imports misstab
    code = (
        "import sys, misstab, misstab.cli; "
        "print(sorted(m for m in sys.modules "
        "if m == 'scipy' or m.startswith('scipy.')))"
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
    assert out.stdout.strip() == "[]"
