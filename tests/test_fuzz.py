"""The exit-code contract under mutated checkpoint metadata.

Each example replaces one value of a valid checkpoint's metadata (a leaf or
a whole object or list) with a value of another JSON type, then runs
`moldta rank` on a mutated affinity-model checkpoint or `moldta finetune
--warm-start` on a mutated pretraining checkpoint. Whatever the value, the
command exits 0 or 2, nothing escapes `cli.main`, and a failure is one
`data error:` line. A value at `keep_rep_when_truncated`, or at or under a
vocabulary, always exits 2: no value of another type is valid there.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moldta.checkpoint import Checkpoint
from moldta.cli import main
from test_cli import PROTS, SMIS, tiny_config_with

JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 40),
    st.floats(-2, 40, allow_nan=False), st.text(max_size=4),
    st.lists(st.integers(-2, 40), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-2, 40), max_size=2))


def paths(node, prefix=()):
    """The key path of every value below a metadata object."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from paths(child, prefix + (key,))


def replaced(meta, path, value):
    """A copy of meta with the value at path replaced."""
    if not path:
        return value
    copy = dict(meta) if isinstance(meta, dict) else list(meta)
    copy[path[0]] = replaced(meta[path[0]], path[1:], value)
    return copy


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A one-step pretraining checkpoint, a one-epoch warm-started model
    checkpoint, and the inputs to run both on."""
    work = tmp_path_factory.mktemp("fuzz")
    (work / "config.txt").write_text(tiny_config_with("train.steps = 1\ntrain.epochs = 1\n"))
    (work / "corpus.txt").write_text("\n".join(SMIS) + "\n")
    rows = ["smiles\tfasta\taffinity"] + [f"{s}\t{PROTS[i % 2]}\t{4.0 + 0.3 * i}"
                                          for i, s in enumerate(SMIS)]
    (work / "data.tsv").write_text("\n".join(rows) + "\n")
    (work / "candidates.tsv").write_text("id\tname\tsmiles\n3\tGamma\tCCO\n1\tAlpha\tCNC\n")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["pretrain", "--corpus", str(work / "corpus.txt"), "--out", str(work / "pre"),
                     "--config", str(work / "config.txt")]) == 0
        assert main(["finetune", "--data", str(work / "data.tsv"), "--out", str(work / "fit"),
                     "--config", str(work / "config.txt"),
                     "--warm-start", str(work / "pre" / "pretrain.ckpt")]) == 0
    return work


def commands(work, ckpt):
    return {"dti": ["rank", "--checkpoint", str(ckpt), "--candidates",
                    str(work / "candidates.tsv"), "--target-fasta", PROTS[0]],
            "pretrain": ["finetune", "--data", str(work / "data.tsv"), "--out",
                         str(work / "out"), "--config", str(work / "config.txt"),
                         "--warm-start", str(ckpt)]}


@pytest.mark.parametrize("kind, source", [("dti", "fit/model.ckpt"),
                                          ("pretrain", "pre/pretrain.ckpt")])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_mistyped_metadata_value_exits_zero_or_two_with_one_data_error_line(trained, kind,
                                                                            source, data):
    valid = Checkpoint.load(trained / source)
    path = data.draw(st.sampled_from(sorted(paths(valid.meta), key=repr)), label="path")
    old = valid.meta
    for key in path:
        old = old[key]
    value = data.draw(JSON_VALUES.filter(lambda v: type(v) is not type(old)), label="value")
    ckpt = trained / f"mutated_{kind}.ckpt"
    Checkpoint(meta=replaced(valid.meta, path, value), tensors=valid.tensors).save(ckpt)
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main(commands(trained, ckpt)[kind])
    must_fail = path[0] in ("keep_rep_when_truncated", "mol_vocab", "prot_vocab")
    assert code in ((2,) if must_fail else (0, 2)), (path, value)
    if code:
        lines = stderr.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("data error: "), lines
