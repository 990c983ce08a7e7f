"""The README's examples against the package: its Python example runs, and its commands parse.

So a README whose API or flags drift from the code fails the suite.
"""

import re
import shlex
from pathlib import Path

import pytest

from snrsched import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(lang):
    """The bodies of the README's fenced ``lang`` code blocks."""
    return re.findall(rf"^```{lang}\n(.*?)^```$", README.read_text(), flags=re.M | re.S)


def _commands():
    """Each ``snrsched ...`` line of the sh blocks as argv, continuations joined.

    A bracketed placeholder such as ``[--target T]`` is left out.
    """
    argvs = []
    for block in _blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("snrsched "):
                argvs.append(shlex.split(re.sub(r"\[[^]]*\]", "", line))[1:])
    return argvs


def test_readme_python_example_runs(capsys):
    (code,) = _blocks("python")
    exec(compile(code, str(README), "exec"), {"__name__": "readme_example"})
    assert " +/- " in capsys.readouterr().out  # the last print, the sampler's NLL


def test_readme_shows_every_subcommand():
    assert {argv[0] for argv in _commands()} == set(cli._COMMANDS)


@pytest.mark.parametrize("argv", _commands(), ids=" ".join)
def test_readme_command_parses(argv):
    # parsing only: no command runs, so no file it names is read
    for parser in (cli.build_parser(argv[0]), cli.build_parser()):
        assert parser.parse_args(argv).command == argv[0]
