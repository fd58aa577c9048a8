import fmuod


def test_public_names_resolve_once():
    missing = [name for name in fmuod.__all__ if not hasattr(fmuod, name)]
    assert missing == []
    assert len(set(fmuod.__all__)) == len(fmuod.__all__)
