"""Setup shared by the scripts in tools/, imported by each before anything
else: it pins BLAS to one thread before numpy loads (BLAS threads change
iteration counts), puts ``perfbench/``, ``tests/`` and ``src/`` on the
import path, and reads the one option that every script takes,
``--problems``."""

import argparse
import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, d) for d in ("perfbench", "tests", "src")]


def comma_list(text: str) -> list[str]:
    """An argparse type: a comma-separated list of distinct names; a
    repeated name is a usage error."""
    names = text.split(",")
    if len(set(names)) != len(names):
        raise argparse.ArgumentTypeError(f"repeated value in {text!r}")
    return names


def keep_problems(argv, doc: str, instances):
    """Parse ``argv`` for ``--problems`` (the script's description is the
    first paragraph of ``doc``) and return the (label, instance) pairs of
    ``instances`` whose ``instance.problem`` it names, all of them when it
    is not given.  A repeated name, or a name that no instance has, is a
    usage error (exit 2)."""
    parser = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    parser.add_argument("--problems", type=comma_list,
                        help="comma-separated program names to keep (default: all)")
    problems = parser.parse_args(argv).problems
    if problems is None:
        return instances
    unmatched = sorted(set(problems) - {inst.problem.name for _, inst in instances})
    if unmatched:
        parser.error(f"--problems names {unmatched} match no instance")
    return [(w, inst) for w, inst in instances if inst.problem.name in problems]
