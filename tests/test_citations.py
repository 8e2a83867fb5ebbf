"""The tests that the package's docstrings and comments and README name exist."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# a test's name, but not a file's such as test_ranges.py
CITED = re.compile(r"\btest_\w+\b(?!\.py)")


def test_cited_tests_exist():
    defined = set()
    for path in [*ROOT.glob("tests/*.py"), *ROOT.glob("bench/test_*.py")]:
        defined.update(re.findall(r"^\s*def (test_\w+)", path.read_text(), re.M))
    sources = {path.name: path.read_text() for path in ROOT.glob("src/eddyplate/*.py")}
    assert any(CITED.search(text) for text in sources.values()), "the package names no test"
    readme = (ROOT / "README.md").read_text()
    for where, text in [*sources.items(), ("README.md", readme)]:
        missing = set(CITED.findall(text)) - defined
        assert not missing, f"{where} names tests that do not exist: {sorted(missing)}"
    for path in re.findall(r"\btests/\w+\.py", readme):
        assert (ROOT / path).is_file(), f"README.md names {path}, which does not exist"
