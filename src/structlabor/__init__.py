"""Toolkit for economies that must staff the upkeep of codified knowledge.

Covers the closed-form long-run labor split and its sensitivities, damped
transition paths, Monte Carlo calibration of the split under parameter
uncertainty, a disaggregated portfolio of task families with entry and
drift, worker assignment with wage dispersion experiments, and estimators
that recover hazards and birth counts from maturity panels.  Library
names are imported from their modules (see the README's library layout).
"""

__version__ = "0.1.0"
