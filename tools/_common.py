"""Setup shared by the scripts in tools/, imported by each before anything
else: it pins BLAS to one thread before numpy loads (BLAS threads change
iteration counts), puts ``perfbench/``, ``tests/`` and ``src/`` on the
import path, and holds the two argument helpers that every script uses."""

import argparse
import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, d) for d in ("perfbench", "tests", "src")]


def comma_list(kind):
    """An argparse type: a comma-separated list of distinct values, each
    read by ``kind``; a repeated value is a usage error."""
    def parse(text: str) -> list:
        values = [kind(v) for v in text.split(",")]
        if len(set(values)) != len(values):
            raise argparse.ArgumentTypeError(f"repeated value in {text!r}")
        return values
    parse.__name__ = f"{kind.__name__} list"  # argparse names it in "invalid ... value"
    return parse


def keep_problems(parser, instances, problems, where: str = ""):
    """The (label, instance) pairs whose ``instance.problem`` is named in
    ``problems`` (all of them when it is None); a name that no instance has
    is a usage error, reported as "--problems names [...] match no
    instance" + ``where``."""
    if problems is None:
        return instances
    problems = set(problems)
    unmatched = sorted(problems - {inst.problem.name for _, inst in instances})
    if unmatched:
        parser.error(f"--problems names {unmatched} match no instance{where}")
    return [(w, inst) for w, inst in instances if inst.problem.name in problems]
