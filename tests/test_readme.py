"""README.md's command lines name only options their subcommand has: every
`--flag` written after `krrlab <subcommand>`, in a fenced block (a line, with
its backslash continuations) or an inline code span (which may wrap lines),
is an option of that subcommand in `cli._build_parser()`."""

import argparse
import re
from pathlib import Path

from krrlab import cli

README = Path(__file__).resolve().parents[1] / "README.md"

FENCE = re.compile(r"^```[^\n]*\n(.*?)^```", re.S | re.M)
SPAN = re.compile(r"`([^`]+)`")
COMMENT = re.compile(r"(^|\s)#.*")
COMMAND = re.compile(r"\bkrrlab\s+([a-z][\w-]*)(.*)", re.S)
FLAG = re.compile(r"(?<![\w-])--[a-z][\w-]*")


def _commands(markdown: str) -> list:
    """(subcommand, flags, command text) of every `krrlab <subcommand>`
    command in the fenced blocks and inline code spans of `markdown`."""
    lines = [COMMENT.sub("", line) for block in FENCE.findall(markdown)
             for line in block.replace("\\\n", " ").splitlines()]
    found = []
    for chunk in lines + SPAN.findall(FENCE.sub("", markdown)):
        match = COMMAND.search(chunk)
        if match:
            found.append((match.group(1), FLAG.findall(match.group(2)),
                          " ".join(match.group(0).split())))
    return found


def _options() -> dict:
    """The option strings of each subcommand of `krrlab`."""
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: set(p._option_string_actions) for name, p in sub.choices.items()}


def _drift(markdown: str) -> list:
    options = _options()
    return [(text, flag) for name, flags, text in _commands(markdown)
            for flag in (flags if name in options else ["<no such subcommand>"])
            if flag not in options.get(name, ())]


def test_readme_commands_name_only_their_subcommands_options():
    commands = _commands(README.read_text(encoding="utf-8"))
    assert {name for name, _, _ in commands} >= {"synth", "sweep", "eig-compare", "bounds",
                                                "plot"}
    assert _drift(README.read_text(encoding="utf-8")) == []


def test_drift_is_seen_in_spans_blocks_and_wrapped_lines():
    markdown = ("Run `krrlab sweep --lin-curvature --trials 1`, or `krrlab sweep --d 200\n"
                "  --n-grid 50:400:50 --tirals 4`, or `krrlab regimes`.\n\n"
                "```sh\n"
                "# a comment names --nothing\n"
                "krrlab bounds --decay harmonic \\\n"
                "              --rstar 5 --beta 2 --eig-out x  # not --checked\n"
                "```\n")
    assert _drift(markdown) == [
        ("krrlab bounds --decay harmonic --rstar 5 --beta 2 --eig-out x", "--eig-out"),
        ("krrlab sweep --lin-curvature --trials 1", "--lin-curvature"),
        ("krrlab sweep --d 200 --n-grid 50:400:50 --tirals 4", "--tirals"),
        ("krrlab regimes", "<no such subcommand>"),
    ]
