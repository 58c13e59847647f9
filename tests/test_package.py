import nccumulants


def test_star_import_and_every_export_resolves():
    namespace = {}
    exec("from nccumulants import *", namespace)
    exported = set(nccumulants.__all__)
    assert len(exported) == len(nccumulants.__all__)
    for name in exported:
        assert getattr(nccumulants, name) is namespace[name]
