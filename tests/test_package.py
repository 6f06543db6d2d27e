import msl


def test_every_export_resolves():
    missing = [name for name in msl.__all__ if not hasattr(msl, name)]
    assert missing == []
    namespace = {}
    exec("from msl import *", namespace)
    assert set(msl.__all__) <= set(namespace)
