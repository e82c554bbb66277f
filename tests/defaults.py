"""The run configuration's defaults, for tests that build library objects.

The library classes and functions take every value a config row feeds;
``AppConfig()`` is the one place those values have defaults.  Tests start
from the objects it builds and vary them with ``dataclasses.replace``, which
re-runs ``__post_init__``, so a replaced value is checked as a constructed
one is.  Values a test needs that differ from the config's are spelled in
the test.
"""

from dataclasses import fields

from structlabor.config import AppConfig
from structlabor.estimators import MaturityPanel

DEFAULTS = AppConfig()


def scenario_panel(scenario) -> MaturityPanel:
    """The maturity panel of a portfolio scenario's rows, built as ``estimate`` builds it."""
    return MaturityPanel(**{f.name: getattr(scenario, f.name) for f in fields(MaturityPanel) if f.init})
