"""Reproduction drivers for every table and figure of the paper.

Each module exposes ``run(...)`` returning a structured result with a
``format()`` method; the CLI (``python -m repro.experiments <name>`` or the
``repro-experiments`` entry point) prints them.  The modules that carry
paper claims declare them beside ``run()`` as ``claims(result)``, rows of
the fidelity table (:mod:`repro.experiments.fidelity`); ``python -m
repro.experiments fidelity`` writes them to ``FIDELITY.json`` and the
paper-vs-measured blocks of EXPERIMENTS.md.

``repro-experiments --list`` names every experiment id.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "CALIBRATIONS": "calibration",
    "Calibration": "calibration",
    "end_to_end_model": "calibration",
    "Table": "report",
    "Figure": "report",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
