"""Fingerprint every solve of the benchmark's workloads, so that two trees
can be checked for bitwise-identical runs with one ``diff``.

Usage, from the root of a checkout:

    python3 tools/fingerprint_runs.py > before.txt
    python3 tools/fingerprint_runs.py --problems HS035,HS044

Each solve runs under default ``SolverOptions``, whose report always
carries its trace records, and prints one line: workload, instance,
status, ni, nf0, nf and three sha256 hashes.  The first covers the status,
every counter and the message, the bytes of x, fv, kkt_residual,
phi_final, lam and mu, and every field of every ``IterationRecord``; it
leaves out only the two timings.
The second covers the same report fields without the trace, so a change
that moves only the trace changes the first hash and keeps the second.
The third covers what the first does except the evaluation counts nf0
and nf, so a change that keeps every iterate and moves only how many
trials reach the objective keeps it.
``cut -d' ' -f1-7`` keeps the columns up to the first hash, and
``cut -d' ' -f1-4,9`` those that such a change keeps.  The instances
are those of every workload of ``perfbench/workloads.py``, which is
imported and not changed; ``--problems`` keeps the instances whose program
has one of the given names (``HS035``, ``convex-n20-s1``,
``logit-n10-s0``, ...).  A repeated name, or a name that no instance has,
is a usage error (exit 2) raised before anything is solved.
"""

import _common  # first: it pins BLAS before numpy loads and sets the import paths

import dataclasses
import hashlib
import sys

import numpy as np

import workloads
from isqp import engine

TIMINGS = ("wall_seconds", "cpu_seconds")
COUNTS = ("nf0", "nf")


def _encode(value) -> bytes:
    """Bytes that tell two values apart exactly: an array's dtype, shape
    and buffer, a float's hex form, and the repr of anything else."""
    if isinstance(value, np.ndarray):
        return f"{value.dtype.str}{value.shape}".encode() + value.tobytes()
    if isinstance(value, (float, np.floating)):
        return float(value).hex().encode()
    return repr(value).encode()


def _update(digest, obj, skip) -> None:
    for field in dataclasses.fields(obj):
        if field.name in skip:
            continue
        digest.update(field.name.encode() + b"=" + _encode(getattr(obj, field.name)) + b"\0")


def fingerprint(report: engine.SolveReport, with_trace: bool = True,
                with_counts: bool = True) -> str:
    """sha256 over every field of the report but its timings (and, unless
    ``with_counts``, nf0 and nf), and, unless ``with_trace`` is false,
    every field of its trace records."""
    skip = TIMINGS + ("trace",) + (() if with_counts else COUNTS)
    digest = hashlib.sha256()
    _update(digest, report, skip)
    for record in report.trace if with_trace else ():
        digest.update(b"record\0")
        _update(digest, record, skip)
    return digest.hexdigest()


def main(argv=None) -> int:
    selected = _common.keep_problems(argv, __doc__, [
        (workload, inst) for workload in workloads.WORKLOADS
        for inst in workloads.build(workload)])
    for workload, inst in selected:
        report = engine.solve(inst.problem, inst.x0)
        print(workload, inst.name, report.status.value, report.ni, report.nf0,
              report.nf, fingerprint(report), fingerprint(report, with_trace=False),
              fingerprint(report, with_counts=False), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
