"""The package's export list."""

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
