"""Dataset ingestion, fold partitioning, and candidate ranking."""

import numpy as np
import pytest

from moldta.codec import MOLECULE, PROTEIN, CodecConfig, build_vocab
from moldta.data import (AffinityRecord, format_ranking, load_affinity_dataset,
                         load_candidates, load_predictions, rank_candidates,
                         split_folds)
from moldta.errors import DataError
from moldta.interaction import InteractionConfig
from moldta.model import DtiModel, ModelConfig
from moldta.protein_cnn import ProteinCnnConfig
from moldta.transformer import TransformerConfig

PROT = "MKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQ"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------

def test_load_well_formed_dataset(tmp_path):
    path = write(tmp_path, "data.tsv",
                 "smiles\tfasta\taffinity\n"
                 f"CCO\t{PROT}\t5.0\n"
                 f"CN=C=O\t{PROT}\t6.5\n"
                 f"CCN\t{PROT}\t4.25\n")
    records = load_affinity_dataset(path, mode="kiba", raw_kd=False)
    assert len(records) == 3
    assert records[1].affinity == 6.5
    assert records[0].fold is None


def test_load_bad_affinity_names_line(tmp_path):
    path = write(tmp_path, "data.tsv",
                 "smiles\tfasta\taffinity\n"
                 f"CCO\t{PROT}\tabc\n")
    with pytest.raises(DataError, match="line 2"):
        load_affinity_dataset(path, mode="kiba", raw_kd=False)


def test_load_bad_fold_id(tmp_path):
    path = write(tmp_path, "data.tsv",
                 "smiles\tfasta\taffinity\tfold\n"
                 f"CCO\t{PROT}\t5.0\t7\n")
    with pytest.raises(DataError, match="fold"):
        load_affinity_dataset(path, mode="kiba", raw_kd=False)


def test_load_davis_raw_kd_transforms(tmp_path):
    path = write(tmp_path, "data.tsv",
                 "smiles\tfasta\taffinity\n"
                 f"CCO\t{PROT}\t10000\n")
    records = load_affinity_dataset(path, mode="davis", raw_kd=True)
    assert records[0].affinity == pytest.approx(5.0, abs=1e-12)
    with pytest.raises(DataError, match="davis"):
        load_affinity_dataset(path, mode="kiba", raw_kd=True)


def test_load_missing_column(tmp_path):
    path = write(tmp_path, "data.tsv", "smiles\taffinity\nCCO\t5.0\n")
    with pytest.raises(DataError, match="missing columns"):
        load_affinity_dataset(path, mode="kiba", raw_kd=False)


@pytest.mark.parametrize("header, row, load", [
    ("affinity\tprediction\taffinity", "1.0\t1.5\t9.0", load_predictions),
    ("smiles\tfasta\taffinity\tsmiles", f"CCO\t{PROT}\t5.0\tCCN",
     lambda path: load_affinity_dataset(path, mode="kiba", raw_kd=False)),
    ("id\tname\tsmiles\tname", "11\tEthanol\tCCO\tMethanol", load_candidates),
], ids=["predictions", "affinity", "candidates"])
def test_load_header_repeating_a_column(tmp_path, header, row, load):
    path = write(tmp_path, "table.tsv", f"{header}\n{row}\n")
    repeated = header.split("\t")[-1]
    with pytest.raises(DataError, match=rf"repeats columns \['{repeated}'\]"):
        load(path)


def test_load_ragged_row(tmp_path):
    path = write(tmp_path, "data.tsv",
                 "smiles\tfasta\taffinity\n"
                 f"CCO\t{PROT}\n")
    with pytest.raises(DataError, match="line 2"):
        load_affinity_dataset(path, mode="kiba", raw_kd=False)


# ---------------------------------------------------------------------------
# folds
# ---------------------------------------------------------------------------

def make_records(n):
    return [AffinityRecord(smiles=f"C{'C' * (i % 5)}O", fasta=PROT,
                           affinity=float(i)) for i in range(n)]


def test_split_folds_auto_proportions():
    records = make_records(30056)
    split = split_folds(records, seed=0)
    assert len(split.test) == 5010                       # ceil(n / 6)
    sizes = sorted(len(f) for f in split.folds)
    assert sizes == [5009, 5009, 5009, 5009, 5010]
    train, dev = split.splits()[0]
    assert len(train) + len(dev) + len(split.test) == 30056


def test_split_folds_disjoint_and_complete():
    records = make_records(100)
    split = split_folds(records, seed=3)
    seen = set()
    for fold in split.folds + [split.test]:
        for r in fold:
            assert id(r) not in seen
            seen.add(id(r))
    assert len(seen) == 100


def test_split_folds_honors_explicit_labels():
    records = make_records(20)
    for i, r in enumerate(records):
        r.fold = i % 5 if i < 15 else None
    split = split_folds(records, seed=0)
    for k in range(5):
        assert all(r.fold == k for r in split.folds[k])
        assert len(split.folds[k]) == 3
    assert len(split.test) == 5
    assert all(r.fold is None for r in split.test)


def test_split_folds_deterministic():
    records = make_records(60)
    a = split_folds(records, seed=11)
    b = split_folds(records, seed=11)
    assert [[id(r) for r in f] for f in a.folds] == [[id(r) for r in f] for f in b.folds]
    assert [id(r) for r in a.test] == [id(r) for r in b.test]


def test_split_folds_too_few():
    with pytest.raises(DataError, match="too few"):
        split_folds(make_records(9), seed=0)


def test_splits_use_each_fold_as_dev_once():
    records = make_records(40)
    split = split_folds(records, seed=1)
    for i, (train, dev) in enumerate(split.splits()):
        assert dev == split.folds[i]
        dev_ids = {id(r) for r in dev}
        assert all(id(r) not in dev_ids for r in train)


# ---------------------------------------------------------------------------
# ranking
# ---------------------------------------------------------------------------

def tiny_model():
    mol_vocab = build_vocab(["CCO", "CN=C=O", "c1ccccc1", "CC(C)O"], MOLECULE)
    prot_vocab = build_vocab([PROT], PROTEIN)
    cfg = ModelConfig(
        codec=CodecConfig(mol_max_len=16, prot_max_len=40),
        transformer=TransformerConfig(vocab_size=len(mol_vocab), num_layers=1,
                                      num_heads=2, hidden=8, intermediate=12,
                                      max_len=16),
        protein=ProteinCnnConfig(vocab_size=len(prot_vocab), embed_dim=6,
                                 filter_lengths=(3, 3), filter_counts=(4, 5)),
        interaction=InteractionConfig(dense_sizes=(7,), dropout=0.1))
    return DtiModel(cfg, mol_vocab, prot_vocab, np.random.default_rng(5))


def test_load_candidates(tmp_path):
    path = write(tmp_path, "cand.tsv",
                 "id\tname\tsmiles\n"
                 "11\tEthanol\tCCO\n"
                 "22\t\tCCN\n")
    candidates = load_candidates(path)
    assert candidates[0].compound_id == "11"
    assert candidates[1].compound_name is None


def test_rank_single_candidate_gets_rank_one():
    from moldta.data import Candidate
    model = tiny_model()
    ranked, errors = rank_candidates([Candidate("9", "x", "CCO")], PROT, model)
    assert not errors
    assert len(ranked) == 1 and ranked[0].rank == 1


def test_rank_descending_and_matches_direct_predictions():
    from moldta.codec import encode_molecule, encode_protein
    from moldta.data import Candidate
    model = tiny_model()
    candidates = [Candidate(str(i), None, s)
                  for i, s in enumerate(("CCO", "CN=C=O", "c1ccccc1", "CC(C)O"))]
    ranked, errors = rank_candidates(candidates, PROT, model)
    assert not errors
    scores = [rc.score for rc in ranked]
    assert scores == sorted(scores, reverse=True)
    assert [rc.rank for rc in ranked] == [1, 2, 3, 4]
    prot_enc = encode_protein(PROT, model.prot_vocab, model.cfg.codec)
    for rc in ranked:
        mol_enc = encode_molecule(rc.smiles, model.mol_vocab, model.cfg.codec,
                                  model.cfg.keep_rep_when_truncated)
        direct = model.predict([mol_enc], [prot_enc], batch_size=1)[0]
        assert rc.score == direct  # bitwise


def test_rank_runs_protein_tower_once(monkeypatch):
    from moldta import model as model_module
    from moldta.data import Candidate
    tower = model_module.protein_forward_ids
    rows = []

    def counted(ids, *args, **kwargs):
        rows.append(ids.shape[0])
        return tower(ids, *args, **kwargs)

    monkeypatch.setattr(model_module, "protein_forward_ids", counted)
    candidates = [Candidate(str(i), None, s) for i, s in
                  enumerate(("CCO", "CN=C=O", "CXZ", "c1ccccc1", "CC(C)O", "CCO"))]
    ranked, errors = rank_candidates(candidates, PROT, tiny_model())
    assert len(ranked) == 5 and len(errors) == 1
    assert rows == [1]


def test_rank_unencodable_candidate_becomes_error_entry():
    from moldta.data import Candidate
    model = tiny_model()
    candidates = [Candidate("1", None, "CCO"), Candidate("2", None, "CXZ")]
    ranked, errors = rank_candidates(candidates, PROT, model)
    assert len(ranked) == 1 and ranked[0].compound_id == "1"
    assert len(errors) == 1 and errors[0][0] == "2"
    assert "'X'" in errors[0][1]


def test_rank_tie_break_by_compound_id():
    from moldta.data import Candidate
    model = tiny_model()
    # same molecule twice -> identical scores; ids decide the order
    candidates = [Candidate("b", None, "CCO"), Candidate("a", None, "CCO")]
    ranked, _ = rank_candidates(candidates, PROT, model)
    assert [rc.compound_id for rc in ranked] == ["a", "b"]
    assert [rc.rank for rc in ranked] == [1, 2]


def test_ranking_is_permutation_of_usable_candidates():
    from moldta.data import Candidate
    model = tiny_model()
    candidates = [Candidate(str(i), None, s)
                  for i, s in enumerate(("CCO", "CN=C=O", "CC(C)O"))]
    ranked, _ = rank_candidates(candidates, PROT, model)
    assert sorted(rc.compound_id for rc in ranked) == ["0", "1", "2"]


def test_format_ranking_table():
    from moldta.data import RankedCandidate
    text = format_ranking([RankedCandidate("7", "Foo", "CCO", 1.25, 1),
                           RankedCandidate("8", None, "CCN", -0.5, 2)])
    lines = text.splitlines()
    assert lines[0] == "rank\tcompound_id\tcompound_name\tscore"
    assert lines[1].startswith("1\t7\tFoo\t1.25")
    assert lines[2].startswith("2\t8\t\t-0.5")


def test_load_predictions(tmp_path):
    path = write(tmp_path, "preds.tsv",
                 "affinity\tprediction\n1.0\t1.5\n2.0\t2.5\n")
    y, y_hat = load_predictions(path)
    assert y.tolist() == [1.0, 2.0]
    assert y_hat.tolist() == [1.5, 2.5]


@pytest.mark.parametrize("row", ["nan\t1.5", "1.0\tinf", "-inf\t1.5"])
def test_load_predictions_non_finite_value_names_its_line(tmp_path, row):
    path = write(tmp_path, "preds.tsv", f"affinity\tprediction\n2.0\t2.5\n{row}\n")
    with pytest.raises(DataError, match=r"preds\.tsv line 3: .*must be finite"):
        load_predictions(path)
