"""Affinity-table ingestion, cross-validation fold handling, and the
candidate-ranking workflow.

Dataset files are tab-separated with a header row naming the columns
smiles, fasta, affinity and (optionally) fold; fold ids 0-4 pin membership
in the five cross-validation folds, and rows without a fold id form the
held-out test set. Candidate files carry id, name, smiles columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .codec import PAD_ID, encode_molecule, encode_protein, read_lines
from .errors import DataError

N_FOLDS = 5
TEST_FRACTION = 1 / 6  # share of rows held out as test when no fold ids are given


@dataclass
class AffinityRecord:
    smiles: str
    fasta: str
    affinity: float
    fold: Optional[int] = None

    def __post_init__(self):
        for field in ("smiles", "fasta"):
            if not getattr(self, field):
                raise DataError(f"empty {field} cell")
        if not math.isfinite(self.affinity):
            raise DataError(f"affinity must be finite, got {self.affinity}")
        if self.fold is not None and not 0 <= self.fold < N_FOLDS:
            raise DataError(f"fold id must lie in 0..{N_FOLDS - 1}, got {self.fold}")


def _read_table(path, required: tuple[str, ...], optional: tuple[str, ...], parse) -> list:
    """parse(row) for each non-blank row of a header-first TSV, row being a
    {column: cell} dict. A ValueError from a row, parse's included, becomes
    a DataError that names the file and line."""
    lines = read_lines(path)
    if not lines:
        raise DataError(f"{path}: empty file")
    header = lines[0].split("\t")
    repeated = sorted({c for c in header if header.count(c) > 1})
    if repeated:
        raise DataError(f"{path}: header repeats columns {repeated}")
    known = set(required) | set(optional)
    missing = [c for c in required if c not in header]
    if missing:
        raise DataError(f"{path}: header missing columns {missing}")
    unknown = [c for c in header if c not in known]
    if unknown:
        raise DataError(f"{path}: unknown columns {unknown}")
    out = []
    try:
        for lineno, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            cells = line.split("\t")
            if len(cells) != len(header):
                raise ValueError(f"expected {len(header)} columns, got {len(cells)}")
            out.append(parse(dict(zip(header, cells))))
    except ValueError as exc:
        raise DataError(f"{path} line {lineno}: {exc}") from exc
    return out


def _number(cast, text: str, what: str):
    """cast(text); a cell it cannot parse is a ValueError naming it a bad `what`."""
    try:
        return cast(text)
    except ValueError as exc:
        raise ValueError(f"bad {what} {text!r}") from exc


def pkd_transform(kd_nanomolar: float) -> float:
    """Dissociation constant in nanomolar -> -log10(kd / 1e9)."""
    if kd_nanomolar <= 0:
        raise ValueError(f"dissociation constant must be positive, got {kd_nanomolar}")
    return -math.log10(kd_nanomolar / 1e9)


def load_affinity_dataset(path, mode: str, raw_kd: bool):
    """Parse an affinity table; in davis mode with raw_kd, nanomolar values
    are log-transformed on the way in."""
    if mode not in ("kiba", "davis"):
        raise DataError(f"unknown dataset mode {mode!r}")
    if raw_kd and mode != "davis":
        raise DataError("raw_kd applies to davis mode only")

    def parse(row):
        affinity = _number(float, row["affinity"], "affinity")
        fold = row.get("fold", "")
        return AffinityRecord(smiles=row["smiles"], fasta=row["fasta"],
                              affinity=pkd_transform(affinity) if raw_kd else affinity,
                              fold=_number(int, fold, "fold id") if fold else None)

    records = _read_table(path, ("smiles", "fasta", "affinity"), ("fold",), parse)
    if not records:
        raise DataError(f"{path}: no data rows")
    return records


@dataclass
class FoldSplit:
    """Five train/dev folds plus a disjoint held-out test set."""

    folds: list
    test: list

    def splits(self):
        """(train, dev) pairs, one per fold: dev = fold i, train = the rest."""
        return [([r for j, fold in enumerate(self.folds) if j != i for r in fold], dev)
                for i, dev in enumerate(self.folds)]


def split_folds(records, seed: int) -> FoldSplit:
    """Partition records into 5 folds plus test.

    Explicit fold ids are honored exactly (rows without one become test);
    otherwise a seeded shuffle holds out ceil(n * TEST_FRACTION) rows as test
    and deals the remainder into five nearly equal folds.
    """
    records = list(records)
    if len(records) < 10:
        raise DataError(f"too few records to split: {len(records)}")
    if any(r.fold is not None for r in records):
        folds = [[r for r in records if r.fold == i] for i in range(N_FOLDS)]
        test = [r for r in records if r.fold is None]
        return FoldSplit(folds=folds, test=test)
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(records))
    n_test = math.ceil(len(records) * TEST_FRACTION)
    test = [records[i] for i in order[:n_test]]
    folds = [[records[i] for i in part] for part in np.array_split(order[n_test:], N_FOLDS)]
    return FoldSplit(folds=folds, test=test)


# ---------------------------------------------------------------------------
# candidate ranking
# ---------------------------------------------------------------------------

@dataclass
class Candidate:
    compound_id: str
    compound_name: Optional[str]
    smiles: str

    def __post_init__(self):
        for field, what in (("compound_id", "id"), ("smiles", "smiles")):
            if not getattr(self, field):
                raise DataError(f"empty {what} cell")


@dataclass
class RankedCandidate:
    compound_id: str
    compound_name: Optional[str]
    smiles: str
    score: float
    rank: int


def load_candidates(path):
    out = _read_table(path, ("id", "name", "smiles"), (), lambda row: Candidate(
        compound_id=row["id"], compound_name=row["name"] or None, smiles=row["smiles"]))
    if not out:
        raise DataError(f"{path}: no candidates")
    return out


def rank_candidates(candidates, target_fasta: str, model):
    """Score every candidate against one target with a DtiModel and sort
    descending.

    Unencodable molecules become (id, reason) error entries, and the ranking
    proceeds over the rest. Score ties break by compound_id ascending; each
    score is a plain single-pair model prediction.
    """
    from .protein_cnn import check_real_lengths  # here: importing data loads no model code
    try:
        enc_prot = encode_protein(target_fasta, model.prot_vocab, model.cfg.codec)
        check_real_lengths([np.count_nonzero(enc_prot != PAD_ID)], model.cfg.protein)
    except DataError as exc:
        raise DataError(f"target protein: {exc}") from exc
    usable, errors = [], []
    for cand in candidates:
        try:
            enc = encode_molecule(cand.smiles, model.mol_vocab, model.cfg.codec,
                                  model.cfg.keep_rep_when_truncated)
        except DataError as exc:
            errors.append((cand.compound_id, str(exc)))
            continue
        usable.append((cand, enc))
    if not usable:
        return [], errors
    # batch of one keeps each score identical to a direct single-pair call
    scores = model.predict([enc for _, enc in usable],
                           [enc_prot] * len(usable), batch_size=1)
    order = sorted(range(len(usable)),
                   key=lambda i: (-scores[i], usable[i][0].compound_id))
    ranked = []
    for rank, i in enumerate(order, start=1):
        cand = usable[i][0]
        ranked.append(RankedCandidate(compound_id=cand.compound_id,
                                      compound_name=cand.compound_name,
                                      smiles=cand.smiles,
                                      score=float(scores[i]), rank=rank))
    return ranked, errors


def format_ranking(ranked) -> str:
    lines = ["rank\tcompound_id\tcompound_name\tscore"]
    for rc in ranked:
        lines.append(f"{rc.rank}\t{rc.compound_id}\t{rc.compound_name or ''}\t{rc.score!r}")
    return "\n".join(lines) + "\n"


def _prediction_pair(row) -> tuple:
    """(affinity, prediction) of one predictions row, both finite."""
    try:
        pair = float(row["affinity"]), float(row["prediction"])
    except ValueError as exc:
        raise ValueError("bad number") from exc
    if not (math.isfinite(pair[0]) and math.isfinite(pair[1])):
        raise ValueError("affinity and prediction must be finite")
    return pair


def load_predictions(path):
    """Read an evaluation table with affinity and prediction columns."""
    pairs = _read_table(path, ("affinity", "prediction"), (), _prediction_pair)
    if not pairs:
        raise DataError(f"{path}: no prediction rows")
    y, y_hat = zip(*pairs)
    return np.array(y), np.array(y_hat)
