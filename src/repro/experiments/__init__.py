"""Experiment harness: regenerates every claim table in EXPERIMENTS.md.

The paper is a techniques survey with no measured tables of its own, so
each "experiment" here validates one stated theorem/bound (see DESIGN.md
§5 for the index). Run everything with::

    python -m repro.experiments            # full sweep (~ minutes)
    python -m repro.experiments --quick    # reduced sizes (~ seconds)
    python -m repro.experiments e3 e9      # selected experiments
    REPRO_DISABLE_NUMPY=1 python -m repro.experiments   # the scalar tier

Output is plain text tables, each naming the kernel tier it ran on;
EXPERIMENTS.md archives a full run.
"""

from repro.experiments.runner import ExperimentResult, ALL_EXPERIMENTS, run_experiment

__all__ = ["ExperimentResult", "ALL_EXPERIMENTS", "run_experiment"]
