"""Load-only sweep of hostile values over every leaf of the three JSON documents spcl reads.

Each leaf of a full config, a saved dataset manifest and a checkpoint's
metadata is set, one at a time, to each value of ``HOSTILE``. The document
must then load, or fail with InvalidConfig (config) or DataError (manifest,
checkpoint) whose message names the leaf's dotted key. Nothing is trained
or generated from the loaded values.
"""

import copy
import json
import math
import re

import numpy as np

from spcl.config import ExperimentConfig, config_from_dict, config_to_dict
from spcl.errors import DataError, InvalidConfig
from spcl.models import ModelConfig, ParamModel
from spcl.synth_data import generate_dataset, load_dataset, save_dataset

# NaN, +-Infinity, -1, 0, a wrong type (a bogus name for string leaves), null, an empty list, and a huge
# float and a huge integer (beyond the float range: JSON integers have no bound)
HOSTILE = (math.nan, math.inf, -math.inf, -1, 0, "x", None, [], 1e300, 10**400)


def leaf_paths(doc, parts=()):
    """The key path of every leaf of a JSON document: objects and lists of objects are walked into."""
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from leaf_paths(v, (*parts, k))
    elif isinstance(doc, list) and doc and all(isinstance(v, dict) for v in doc):
        for i, v in enumerate(doc):
            yield from leaf_paths(v, (*parts, i))
    else:
        yield parts


def dotted(parts) -> str:
    return "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in parts).lstrip(".")


def with_leaf(doc, parts, value):
    doc = copy.deepcopy(doc)
    node = doc
    for p in parts[:-1]:
        node = node[p]
    node[parts[-1]] = value
    return doc


def names_key(message: str, key: str) -> bool:
    """Whether ``message`` names ``key``: whole, or as the ``section: `` prefix of a rule that names the field."""
    section, _, leaf = key.rpartition(".")
    return key in message or (f"{section}: " in message and re.search(rf"\b{re.escape(leaf)}\b", message) is not None)


def sweep(doc, load, error) -> tuple[int, list[str]]:
    """Load ``doc`` with each hostile value on each leaf; the count of leaves, and each load that misbehaved."""
    paths = list(leaf_paths(doc))
    problems = []
    for parts in paths:
        key = dotted(parts)
        for value in HOSTILE:
            try:
                load(with_leaf(doc, parts, value))
            except error as exc:
                if not names_key(str(exc), key):
                    problems.append(f"{key}={value!r}: {exc}")
    return len(paths), problems


def test_config_sweep():
    count, problems = sweep(config_to_dict(ExperimentConfig()), config_from_dict, InvalidConfig)
    assert count == 47
    assert not problems, "\n".join(problems)


def test_manifest_sweep(tmp_path):
    root = tmp_path / "data"
    save_dataset(generate_dataset(4, 4, (8, 8), noise_level=0.2, seed=3), root)
    path = root / "manifest.json"
    manifest = json.loads(path.read_text())

    def load(doc):
        path.write_text(json.dumps(doc))
        load_dataset(root)

    count, problems = sweep(manifest, load, DataError)
    assert count == 9 + 5 * len(manifest["volumes"])
    assert not problems, "\n".join(problems)


def test_checkpoint_sweep(tmp_path):
    path = tmp_path / "model.npz"
    ParamModel(ModelConfig(image_shape=(8, 8), conv_channels=(3, 4), head_hidden=8, embed_dim=6)).save(path)
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files if k != "__meta__"}
        meta = json.loads(bytes(data["__meta__"]).decode())

    def load(doc):
        with open(path, "wb") as fh:
            np.savez(fh, __meta__=np.frombuffer(json.dumps(doc).encode(), dtype=np.uint8), **arrays)
        ParamModel.load(path)

    count, problems = sweep(meta, load, DataError)
    assert count == 12
    assert not problems, "\n".join(problems)
