"""Random-stream tags."""

from nonconv import rng


def test_stream_tags_are_distinct():
    tags = {name: value for name, value in vars(rng).items() if name.startswith("STREAM_")}
    assert len(tags) >= 7
    assert len(set(tags.values())) == len(tags), tags
