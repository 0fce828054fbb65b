import doctest
from pathlib import Path


def test_readme_example_runs():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    result = doctest.testfile(str(readme), module_relative=False)
    assert result.attempted == 4 and result.failed == 0
