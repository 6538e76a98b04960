"""Fingerprint every solve of the benchmark's workloads, so that two trees
can be checked for bitwise-identical runs with one ``diff``.

Usage, from the root of a checkout:

    python3 tools/fingerprint_runs.py > before.txt
    python3 tools/fingerprint_runs.py --workload hs-corpus --problems HS035,HS044

Each solve runs under default ``SolverOptions``, whose report always
carries its trace records, and prints one line: workload, instance,
status, ni, nf0, nf and two sha256 hashes.  The first covers the status,
every counter and the message, the bytes of x, fv, kkt_residual,
phi_final, lam and mu, and every field of every ``IterationRecord``; it
leaves out only the two timings.
The second covers the same report fields without the trace, so a change
that moves only the trace changes the first hash and keeps the second.
``cut -d' ' -f1-7`` keeps the columns up to the first hash.  The instances
are those of ``perfbench/workloads.py``, which is imported and not
changed; ``--problems`` keeps the instances whose program has one of the
given names (``HS035``, ``convex-n20-s1``, ``logit-n10-s0``, ...).  A
repeated workload, or a name that no instance of the selected workloads
has, is a usage error (exit 2) raised before anything is solved.
"""

import os

# BLAS threads change iteration counts; pin them before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from isqp import engine  # noqa: E402

TIMINGS = ("wall_seconds", "cpu_seconds")


def _encode(value) -> bytes:
    """Bytes that tell two values apart exactly: an array's dtype, shape
    and buffer, a float's hex form, and the repr of anything else."""
    if isinstance(value, np.ndarray):
        return f"{value.dtype.str}{value.shape}".encode() + value.tobytes()
    if isinstance(value, (float, np.floating)):
        return float(value).hex().encode()
    return repr(value).encode()


def _update(digest, obj) -> None:
    for field in dataclasses.fields(obj):
        if field.name in TIMINGS or field.name == "trace":
            continue
        digest.update(field.name.encode() + b"=" + _encode(getattr(obj, field.name)) + b"\0")


def fingerprint(report: engine.SolveReport, with_trace: bool = True) -> str:
    """sha256 over every field of the report but its timings, and, unless
    ``with_trace`` is false, every field of its trace records."""
    digest = hashlib.sha256()
    _update(digest, report)
    for record in report.trace if with_trace else ():
        digest.update(b"record\0")
        _update(digest, record)
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", type=lambda t: t.split(","),
                        default=list(workloads.WORKLOADS),
                        help="comma-separated workloads (default: all)")
    parser.add_argument("--problems", type=lambda t: set(t.split(",")), default=None,
                        help="comma-separated program names to keep (default: all)")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.workload) - set(workloads.WORKLOADS))
    if unknown:
        parser.error(f"unknown workload {unknown}; choose from {list(workloads.WORKLOADS)}")
    repeated = sorted({w for w in args.workload if args.workload.count(w) > 1})
    if repeated:
        parser.error(f"--workload names {repeated} more than once")
    selected = [(workload, inst) for workload in args.workload
                for inst in workloads.build(workload)]
    if args.problems is not None:
        unmatched = sorted(args.problems - {inst.problem.name for _, inst in selected})
        if unmatched:
            parser.error(f"--problems names {unmatched} match no instance of {args.workload}")
        selected = [(w, inst) for w, inst in selected if inst.problem.name in args.problems]

    for workload, inst in selected:
        report = engine.solve(inst.problem, inst.x0)
        print(workload, inst.name, report.status.value, report.ni, report.nf0,
              report.nf, fingerprint(report), fingerprint(report, with_trace=False),
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
