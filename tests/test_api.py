import ghkit


def test_every_exported_name_resolves():
    missing = [name for name in ghkit.__all__ if not hasattr(ghkit, name)]
    assert not missing
