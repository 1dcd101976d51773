"""The package's public names."""

import dkph


def test_every_exported_name_resolves():
    missing = [name for name in dkph.__all__ if not hasattr(dkph, name)]
    assert missing == []
    assert len(set(dkph.__all__)) == len(dkph.__all__)
