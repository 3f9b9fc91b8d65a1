"""Tokenization, vocabulary and padding contracts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moldta.codec import (BEGIN, END, MASK, MOLECULE, PAD, PAD_ID, PROTEIN, REP,
                          CodecConfig, Vocab, build_vocab, decode,
                          encode_molecule, encode_protein, tokenize_molecule)
from moldta.errors import DataError

CFG = CodecConfig()
ALPHABET = "CNOS()=#123[]+-cl@"
PROP_MOL_VOCAB = build_vocab([ALPHABET], MOLECULE)
PROP_PROT_VOCAB = build_vocab(["ACDEFGHIKLMNPQRSTVWY"], PROTEIN)


def test_build_vocab_molecule_order():
    vocab = build_vocab(["CN=C=O"], MOLECULE)
    assert vocab.tokens == (PAD, REP, BEGIN, END, MASK, "=", "C", "N", "O")
    assert len(vocab) == 9
    assert vocab.index == {t: i for i, t in enumerate(vocab.tokens)}


def test_build_vocab_empty_string_gives_specials_only():
    vocab = build_vocab([""], MOLECULE)
    assert vocab.tokens == (PAD, REP, BEGIN, END, MASK)


def test_build_vocab_protein():
    vocab = build_vocab(["MKT"], PROTEIN)
    assert vocab.tokens == (PAD, "K", "M", "T")


def test_build_vocab_empty_corpus_errors():
    with pytest.raises(DataError, match="empty corpus"):
        build_vocab([], MOLECULE)


def test_pad_has_id_zero_and_specials_unique():
    vocab = build_vocab(["CCO"], MOLECULE)
    assert vocab.id_of(PAD) == PAD_ID == 0
    assert len({vocab.id_of(t) for t in (PAD, REP, BEGIN, END, MASK)}) == 5


def test_encode_molecule_paper_example_nine_tokens():
    vocab = build_vocab(["CN=C=O"], MOLECULE)
    enc = encode_molecule("CN=C=O", vocab, CFG, False)
    tokens = [vocab.tokens[i] for i in enc[:9]]
    assert tokens == [REP, BEGIN, "C", "N", "=", "C", "=", "O", END]
    assert enc.shape == (100,)
    assert (enc[9:] == PAD_ID).all()
    assert (enc != PAD_ID).sum() == 9


def test_encode_molecule_empty_payload():
    vocab = build_vocab(["CN=C=O"], MOLECULE)
    enc = encode_molecule("", vocab, CFG, False)
    assert [vocab.tokens[i] for i in enc[:3]] == [REP, BEGIN, END]
    assert (enc != PAD_ID).sum() == 3
    assert (enc[3:] == PAD_ID).all()


def test_encode_molecule_head_tail_truncation():
    payload = "C" * 50 + "N" * 100 + "O" * 50
    vocab = build_vocab([payload], MOLECULE)
    enc = encode_molecule(payload, vocab, CFG, False)
    assert (enc != PAD_ID).all()  # 100 kept characters, no padding
    kept = decode(enc, vocab)
    assert kept == payload[50:150]  # middle window
    assert not any(vocab.tokens[i] in vocab.specials for i in enc)


def test_encode_molecule_truncation_keep_rep_variant():
    payload = "C" * 120
    vocab = build_vocab([payload], MOLECULE)
    enc = encode_molecule(payload, vocab, CFG, keep_rep_when_truncated=True)
    assert vocab.tokens[enc[0]] == REP
    assert (enc != PAD_ID).all()
    assert decode(enc, vocab) == "C" * 99
    assert vocab.id_of(BEGIN) not in enc and vocab.id_of(END) not in enc


def test_encode_molecule_boundary_decorated_length():
    # payload of exactly mol_max_len - 3 still fits undecorated
    vocab = build_vocab(["C"], MOLECULE)
    enc = encode_molecule("C" * 97, vocab, CFG, False)
    assert vocab.id_of(BEGIN) in enc and vocab.id_of(END) in enc
    assert (enc != PAD_ID).sum() == 100
    # one more character forces truncation
    enc2 = encode_molecule("C" * 98, vocab, CFG, False)
    assert vocab.id_of(BEGIN) not in enc2 and vocab.id_of(END) not in enc2


def test_encode_molecule_unknown_character_names_it():
    vocab = build_vocab(["CC"], MOLECULE)
    with pytest.raises(DataError, match=r"'N' at position 1"):
        encode_molecule("CN", vocab, CFG, False)


def test_encode_protein_basic():
    vocab = build_vocab(["MKT"], PROTEIN)
    enc = encode_protein("MKT", vocab, CFG)
    assert enc.shape == (1000,)
    assert (enc != PAD_ID).sum() == 3
    assert (enc[3:] == PAD_ID).all()


def test_encode_protein_empty():
    vocab = build_vocab(["MKT"], PROTEIN)
    enc = encode_protein("", vocab, CFG)
    assert (enc != PAD_ID).sum() == 0


def test_encode_protein_truncates_to_prefix():
    seq = "MKTA" * 300  # 1200 characters
    vocab = build_vocab([seq], PROTEIN)
    enc = encode_protein(seq, vocab, CFG)
    assert (enc != PAD_ID).all()
    assert decode(enc, vocab) == seq[:1000]


def test_decode_round_trips():
    mol_vocab = build_vocab(["CN=C=O"], MOLECULE)
    assert decode(encode_molecule("CN=C=O", mol_vocab, CFG, False), mol_vocab) == "CN=C=O"
    prot_vocab = build_vocab(["MKT"], PROTEIN)
    assert decode(encode_protein("MKT", prot_vocab, CFG), prot_vocab) == "MKT"


def test_decode_all_pad_is_empty():
    vocab = build_vocab(["C"], MOLECULE)
    assert decode(np.zeros(10, dtype=np.int64), vocab) == ""


def test_decode_out_of_range_id():
    vocab = build_vocab(["C"], MOLECULE)
    with pytest.raises(DataError, match="out of range"):
        decode(np.array([99]), vocab)


def test_round_trip_random_non_truncated(seed=4):
    rng = np.random.default_rng(seed)
    alphabet = list("CNOPS()=#123[]+-claborn")
    corpus = ["".join(rng.choice(alphabet, size=rng.integers(0, 90)))
              for _ in range(200)]
    vocab = build_vocab(corpus, MOLECULE)
    for s in corpus:
        enc = encode_molecule(s, vocab, CFG, False)
        assert vocab.id_of(BEGIN) in enc and vocab.id_of(END) in enc
        assert decode(enc, vocab) == s
        assert enc.shape == (CFG.mol_max_len,)
        # every decorated token is real: [REP] [BEGIN] payload [END]
        assert (enc != PAD_ID).sum() == len(s) + 3


def test_boundary_tokens_absent_iff_decorated_length_exceeds_cap():
    rng = np.random.default_rng(11)
    vocab = build_vocab(["CNO"], MOLECULE)
    for n in [0, 5, 96, 97, 98, 100, 150, 400]:
        s = "".join(rng.choice(list("CNO"), size=n))
        enc = encode_molecule(s, vocab, CFG, False)
        over_cap = n + 3 > CFG.mol_max_len
        assert (vocab.id_of(BEGIN) not in enc) == over_cap
        assert (vocab.id_of(END) not in enc) == over_cap


def test_encoders_return_int64_id_arrays_of_the_cap_length():
    cfg = CodecConfig(mol_max_len=12, prot_max_len=7)
    mol_vocab, prot_vocab = build_vocab(["CN=C=O"], MOLECULE), build_vocab(["MKT"], PROTEIN)
    # under the cap (padded) and over it (truncated)
    for enc, cap in ((encode_molecule("CN=C=O", mol_vocab, cfg, False), 12),
                     (encode_molecule("C" * 30, mol_vocab, cfg, True), 12),
                     (encode_protein("MKT", prot_vocab, cfg), 7),
                     (encode_protein("MKT" * 5, prot_vocab, cfg), 7)):
        assert type(enc) is np.ndarray
        assert enc.dtype == np.int64 and enc.shape == (cap,)


def test_determinism_identical_bytes():
    vocab = build_vocab(["CN=C=O"], MOLECULE)
    a = encode_molecule("CN=C=O", vocab, CFG, False)
    b = encode_molecule("CN=C=O", vocab, CFG, False)
    assert a.tobytes() == b.tobytes()


def test_vocab_save_load_round_trip(tmp_path):
    vocab = build_vocab(["CN=C=O"], MOLECULE)
    path = tmp_path / "vocab.txt"
    vocab.save(path)
    raw = path.read_text().splitlines()
    assert raw[0] == PAD and raw[5] == "="  # line number = id
    loaded = Vocab.load(path, MOLECULE)
    assert loaded.kind == MOLECULE
    assert loaded.tokens == vocab.tokens

    prot = build_vocab(["MKT"], PROTEIN)
    prot_path = tmp_path / "prot.txt"
    prot.save(prot_path)
    assert Vocab.load(prot_path, PROTEIN).kind == PROTEIN


def test_codec_config_validation():
    with pytest.raises(ValueError):
        CodecConfig(mol_max_len=0)
    with pytest.raises(ValueError):
        CodecConfig(prot_max_len=-5)


def test_tokenize_molecule_stream():
    for keep_rep in (True, False):
        assert tokenize_molecule("CN=C=O", CFG, keep_rep) == [REP, BEGIN, "C", "N", "=", "C",
                                                              "=", "O", END]
    stream = tokenize_molecule("C" * 200, CFG, False)
    assert len(stream) == 100 and REP not in stream and BEGIN not in stream
    stream = tokenize_molecule("C" * 200, CFG, True)
    assert len(stream) == 100 and stream[0] == REP and BEGIN not in stream[1:]


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=ALPHABET, max_size=60), st.integers(1, 40), st.booleans())
def test_molecule_encoding_is_the_decorated_payload_or_its_middle_window(payload, cap,
                                                                          keep_rep):
    vocab = PROP_MOL_VOCAB
    enc = encode_molecule(payload, vocab, CodecConfig(mol_max_len=cap), keep_rep)
    real = int((enc != PAD_ID).sum())
    assert enc.shape == (cap,)
    assert (enc[:real] != PAD_ID).all() and (enc[real:] == PAD_ID).all()
    kept = decode(enc, vocab)
    tokens = [vocab.tokens[i] for i in enc[:real]]
    if len(payload) + 3 <= cap:
        assert tokens == [REP, BEGIN, *payload, END]
        assert kept == payload
        return
    # a truncated molecule is a contiguous middle window of its payload,
    # [REP] in front when keep_rep, with no other special token
    head = [REP] if keep_rep else []
    assert tokens == head + list(kept)
    assert len(kept) == min(len(payload), cap - len(head))
    cut = len(payload) - len(kept)    # the head loses cut // 2, the tail the rest
    assert kept == payload[cut // 2:cut // 2 + len(kept)]


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="ACDEFGHIKLMNPQRSTVWY", max_size=60), st.integers(1, 40))
def test_protein_encoding_is_the_padded_prefix(fasta, cap):
    vocab = PROP_PROT_VOCAB
    enc = encode_protein(fasta, vocab, CodecConfig(prot_max_len=cap))
    assert enc.shape == (cap,)
    assert decode(enc, vocab) == fasta[:cap]
    np.testing.assert_array_equal(enc != PAD_ID, np.arange(cap) < min(len(fasta), cap))
