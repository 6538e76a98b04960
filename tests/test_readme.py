"""README's examples stay true: every ``isqp`` line of the command-line
block parses with the CLI's own parser, and the library example converges."""

import contextlib
import io
import shlex
from pathlib import Path

import numpy as np

from isqp import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(heading, language):
    """The first ``language`` code block of the README section ``heading``."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def test_readme_examples_parse_and_converge():
    commands = [shlex.split(line, comments=True)
                for line in _block("Command-line interface", "sh").splitlines()]
    assert len(commands) == 7 and all(command[0] == "isqp" for command in commands)
    parser = cli._build_parser()
    for command in commands:
        parser.parse_args(command[1:])  # a flag it does not know exits 2

    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(_block("Library use", "python"), namespace)
    report = namespace["report"]
    assert report.status.value == "converged"
    assert np.allclose(report.x, [1.0, 1.0], atol=1e-8)
    assert out.getvalue().startswith("converged ")
