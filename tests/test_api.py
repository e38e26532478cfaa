import contextlib
import inspect
import io
import re
from pathlib import Path

import prmimo

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_public_name_resolves_once():
    assert len(set(prmimo.__all__)) == len(prmimo.__all__)
    for name in prmimo.__all__:
        assert hasattr(prmimo, name), name


def test_public_attributes_are_the_public_names():
    # A name imported into the package but left out of __all__ is public
    # all the same; the submodules and __version__ are not names of it.
    public = {
        name
        for name, value in vars(prmimo).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == set(prmimo.__all__)


def test_public_names_do_not_grow():
    # A ratchet on the size of the public API: lower it as names go.
    assert len(prmimo.__all__) <= 22


def test_source_lines_do_not_grow():
    # A ratchet on the size of the package: lower it as lines go.
    sources = Path(prmimo.__file__).parent.glob("*.py")
    assert sum(len(path.read_text().splitlines()) for path in sources) <= 1607


def test_readme_library_example_runs():
    # The python block under "## Library example", run as it stands.
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    output = io.StringIO()
    with contextlib.redirect_stdout(output):
        exec(compile(code, "README.md", "exec"), {})
    assert "->" in output.getvalue()
