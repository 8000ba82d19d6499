"""The package's public names."""

import monotrails


def test_every_exported_name_resolves_once():
    names = monotrails.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(monotrails, name)] == []
