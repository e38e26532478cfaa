from pathlib import Path

import prmimo


def test_every_public_name_resolves_once():
    assert len(set(prmimo.__all__)) == len(prmimo.__all__)
    for name in prmimo.__all__:
        assert hasattr(prmimo, name), name


def test_public_names_do_not_grow():
    # A ratchet on the size of the public API: lower it as names go.
    assert len(prmimo.__all__) <= 35


def test_source_lines_do_not_grow():
    # A ratchet on the size of the package: lower it as lines go.
    sources = Path(prmimo.__file__).parent.glob("*.py")
    assert sum(len(path.read_text().splitlines()) for path in sources) <= 1870
