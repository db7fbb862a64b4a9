"""No line of the package, the tests or the scripts is longer than 100
characters."""

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MAX_LINE = 100


def test_no_line_is_too_long():
    long_lines = [(str(path.relative_to(ROOT)), n, len(line))
                  for d in ("src/stackygit", "tests", "scripts")
                  for path in sorted((ROOT / d).glob("*.py"))
                  for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
                  if len(line) > MAX_LINE]
    assert long_lines == []
