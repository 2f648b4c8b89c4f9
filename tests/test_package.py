import feedback_lens


def test_every_exported_name_resolves_on_the_package():
    missing = [name for name in feedback_lens.__all__ if not hasattr(feedback_lens, name)]
    assert not missing
