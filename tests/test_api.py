import prmimo


def test_every_public_name_resolves_once():
    assert len(set(prmimo.__all__)) == len(prmimo.__all__)
    for name in prmimo.__all__:
        assert hasattr(prmimo, name), name
