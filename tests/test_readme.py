"""The README's examples show what the package prints."""

import re
import shlex
from pathlib import Path

from waringcert.cli import run

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
# (info string, body) of every fenced block.
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, re.M | re.S)


def _block(tag, marker):
    """The body of the first block fenced as ``tag`` that holds ``marker``."""
    return next(body for info, body in BLOCKS if info == tag and marker in body)


def test_the_library_example_shows_the_repr_of_each_commented_expression():
    # Each line "expr  # value" of the first python block shows repr(expr),
    # once the lines above it have run.
    namespace, pending, shown = {}, [], 0
    for line in _block("python", "").splitlines():
        match = re.fullmatch(r"(\S.*?)\s+# (.+)", line)
        if match:
            exec("\n".join(pending), namespace)
            pending = []
            assert repr(eval(match[1], namespace)) == match[2], line
            shown += 1
        else:
            pending.append(line)
    exec("\n".join(pending), namespace)
    assert shown


def test_the_certify_excerpt_is_part_of_the_demo_certificate(tmp_path, capsys):
    # The README's certify command on its demo point file prints every line
    # of the human excerpt, in order; "..." marks the lines left out.
    demo = tmp_path / "demo.pts"
    demo.write_text(_block("", "dim: 2"))
    command = next(line for line in _block("sh", "demo.pts").splitlines()
                   if "certify demo.pts" in line)
    argv = [str(demo) if arg == "demo.pts" else arg
            for arg in shlex.split(command, comments=True)[1:]]
    assert argv[0] == "certify" and run(argv) == 0
    printed = iter(capsys.readouterr().out.splitlines())
    excerpt = [line for line in _block("", "verdict:").splitlines() if line.strip() != "..."]
    assert excerpt and all(line in printed for line in excerpt)
