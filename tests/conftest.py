"""Shared test settings: property tests draw the same examples on every run."""

import gc
import weakref

import pytest
from hypothesis import settings

# derandomize draws examples from a fixed seed; with no example database, no run
# replays or saves failing examples, so one run cannot change what the next one tests
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def memos_at_first_train(monkeypatch):
    """Weak references to every PromptEncoder built and every token vector made.

    Returns a dict that the first `train_model` call of the harness fills, after a
    `gc.collect()`: `made` and `alive` each count the encoders and the token vectors, and
    `arrays` names the arrays that its train table and its val table each hold.
    """
    import numpy as np  # here, so the settings above need neither NumPy nor fusecast
    from fusecast import evaluation, textenc

    refs = {"encoders": [], "tokens": []}
    seen = {}
    init, token_vector, train_model = (textenc.PromptEncoder.__init__, textenc._token_vector,
                                       evaluation.train_model)

    def tracked_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        refs["encoders"].append(weakref.ref(self))

    def tracked_token_vector(*args):
        vector = token_vector(*args)
        refs["tokens"].append(weakref.ref(vector))
        return vector

    def first_train(*args, **kwargs):
        if not seen:
            gc.collect()
            seen["made"] = {kind: len(each) for kind, each in refs.items()}
            seen["alive"] = {kind: sum(ref() is not None for ref in each)
                             for kind, each in refs.items()}
            seen["arrays"] = [{name for name, value in vars(table).items()
                               if isinstance(value, np.ndarray)} for table in args[3:5]]
        return train_model(*args, **kwargs)

    monkeypatch.setattr(textenc.PromptEncoder, "__init__", tracked_init)
    monkeypatch.setattr(textenc, "_token_vector", tracked_token_vector)
    monkeypatch.setattr(evaluation, "train_model", first_train)
    return seen
