"""Random-stream tags."""

from nonconv import rng


def test_stream_tags_are_distinct():
    tags = {name: value for name, value in vars(rng).items() if name.startswith("STREAM_")}
    assert set(tags) == {
        "STREAM_BERNOULLI", "STREAM_MARKOV", "STREAM_SUBSHIFT", "STREAM_HITTING",
        "STREAM_SAMPLE_POINT", "STREAM_SEVASTYANOV",
    }
    assert len(set(tags.values())) == len(tags), tags
