import hypothesis
import pytest

hypothesis.settings.register_profile(
    "ci", deadline=None, derandomize=True, max_examples=25)
# A long search, chosen with `pytest --hypothesis-profile=fuzz`.
hypothesis.settings.register_profile("fuzz", deadline=None, max_examples=2000)
hypothesis.settings.load_profile("ci")


@pytest.fixture
def drawn(monkeypatch):
    """The row count of every SplitMix64.normal_rows call, in order."""
    from gradlite.rng import SplitMix64
    calls, normal_rows = [], SplitMix64.normal_rows

    def counting(self, n, rows):
        calls.append(rows)
        return normal_rows(self, n, rows)
    monkeypatch.setattr(SplitMix64, "normal_rows", counting)
    return calls


@pytest.fixture
def decomposed(monkeypatch):
    """The Gram matrices the SVD core decomposes, one entry per eigh."""
    from gradlite import linalg
    calls, original = [], linalg.eigh_lo

    def counting(gram, *args, **kwargs):
        calls.append(gram)
        return original(gram, *args, **kwargs)
    monkeypatch.setattr(linalg, "eigh_lo", counting)
    return calls
