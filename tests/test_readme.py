"""README's Library examples run against the package as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_blocks() -> list[str]:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.S)


def test_library_examples_run(capsys):
    blocks = library_blocks()
    assert len(blocks) == 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    # the GridSpec example prints the ValueError that its comment shows
    printed = capsys.readouterr().out.splitlines()
    assert printed[-1] == "65537 is too large: primes must be below 2**16 = 65536"
