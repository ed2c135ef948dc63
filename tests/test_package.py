import geohg


def test_every_exported_name_resolves():
    missing = [name for name in geohg.__all__ if not hasattr(geohg, name)]
    assert missing == []
    assert len(set(geohg.__all__)) == len(geohg.__all__)
