"""The model file: exact probabilities, the checksummed header, and the
query-scoped load (``kb.read_model``) against a parse of the whole file."""

import json
import tempfile
import zlib
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import CliRunner, tuple_counts

from plkb.cli import main
from plkb.data import from_rows
from plkb.direct import active_kb, build_direct_kb, relevant_kb
from plkb.evaluate import classify_query
from plkb.explain import compute_explanation
from plkb.kb import (
    POS,
    Atom,
    Clause,
    KBParseError,
    KnowledgeBase,
    Literal,
    WeightedClause,
    feature_names,
    parse_kb,
    read_model,
    rule_clause,
    serialize_kb,
    write_model,
)
from plkb.lp import apply_query, build_lp, dump_lp
from plkb.tree import build_id3, kb_from_tree

FEATURES = ["a1", "a2", "a3", "a4"]
VALUES = ["0", "1", "2"]
# Not an atom name: a query value that, pasted into a candidate body, would
# read as the body {a1=1, a2=3}.
NOT_AN_ATOM = "1 | !a2=3"


def saved(kb: KnowledgeBase) -> bytes:
    """The bytes ``write_model`` writes for ``kb``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.plkb"
        write_model(kb, path)
        return path.read_bytes()


def body_lines(raw: bytes) -> list[str]:
    return raw.decode().splitlines()[1:]


def with_body(raw: bytes, lines: list[str]) -> bytes:
    """``raw`` with its lines after the header replaced, the checksum left
    as it was."""
    return raw.split(b"\n", 1)[0] + b"\n" + "".join(l + "\n" for l in lines).encode()


def resealed(raw: bytes) -> bytes:
    """``raw`` with its checksum recomputed over what follows the field."""
    head, rest = raw[:15], raw[23:]
    assert head == b"# plkb 2 crc32=" and rest.startswith(b" others=")
    return head + b"%08x" % zlib.crc32(rest[1:]) + rest


def answers(query, kb: KnowledgeBase) -> tuple:
    """Every answer the command line gives from a model and a query:
    the classification, the explanation at each k, and the LP text."""
    sub = active_kb(query, kb)
    lp_text = dump_lp(apply_query(build_lp(sub), query)) if len(sub) else None
    expls = [compute_explanation(query, kb, k) for k in range(1, len(query) + 1)]
    return classify_query(kb, query), expls, lp_text


_prob = st.builds(Fraction, st.integers(0, 12), st.integers(1, 12)).filter(lambda p: p <= 1)


@st.composite
def rule_only_kbs(draw):
    """A trained direct or tree model, or rules with any exact probability."""
    kind = draw(st.sampled_from(["direct", "tree", "tree-all", "rules"]))
    if kind == "rules":
        pair = st.tuples(st.sampled_from(FEATURES), st.sampled_from(VALUES))
        bodies = draw(st.lists(st.lists(pair, max_size=4, unique_by=lambda p: p[0]),
                               max_size=12, unique_by=frozenset))
        return KnowledgeBase(WeightedClause(draw(_prob), rule_clause(b)) for b in bodies)
    row = st.tuples(st.tuples(*[st.sampled_from(VALUES)] * len(FEATURES)), st.booleans())
    ds = from_rows(FEATURES, draw(st.lists(row, min_size=1, max_size=12)))
    if kind == "direct":
        return build_direct_kb(ds, draw(st.none() | st.integers(1, len(FEATURES))))
    return kb_from_tree(build_id3(ds), "leaves" if kind == "tree" else "all_nodes")


@st.composite
def queries(draw):
    """Full, partial and out-of-table queries: any of a1..a4 and a5, which
    no model has, each unasserted or set to a seen value or to 7, which no
    model has seen; now and then a pair that is no atom."""
    drawn = draw(st.tuples(*[st.none() | st.sampled_from([*VALUES, "7"])] * 5))
    query = {f"a{i}": v for i, v in enumerate(drawn, 1) if v is not None}
    if draw(st.booleans()):
        query[draw(st.sampled_from(["a1", "a5", "a b"]))] = NOT_AN_ATOM
    return query


class TestScopedLoad:
    @settings(max_examples=200, deadline=None)
    @given(rule_only_kbs(), st.lists(queries(), min_size=1, max_size=4))
    def test_answers_equal_the_whole_parse(self, kb, qs):
        raw = saved(kb)
        whole = parse_kb(raw.decode())
        for query in qs:
            model = read_model(raw, query)
            assert model is not None  # at most 6 pairs: 64 candidates always pay
            scoped, features = model
            assert features == sorted({f for f, _ in whole.atoms})
            assert answers(query, scoped) == answers(query, whole)

    def test_a_pair_that_is_no_atom_reads_no_line(self):
        kb = KnowledgeBase([
            WeightedClause(Fraction(1, 4), rule_clause([("a1", "1"), ("a2", "3")])),
            WeightedClause(Fraction(3, 4), rule_clause([("a2", "3")])),
        ])
        scoped, _ = read_model(saved(kb), {"a1": NOT_AN_ATOM, "a2": "3"})
        assert tuple_counts(scoped) == {(("a2", "3"),): (4, 3)}

    def test_reads_only_the_query_lines(self):
        kb = build_direct_kb(from_rows(FEATURES, [(("0", "1", "2", "0"), True),
                                                  (("1", "1", "0", "0"), False)]))
        raw = saved(kb)
        lines = body_lines(raw)
        bad = lines.index("0 pos | !a1=1")
        lines[bad] = "0x pos | !a1=1"
        raw = resealed(with_body(raw, lines))
        scoped, _ = read_model(raw, {"a1": "0", "a2": "1"})
        assert tuple_counts(scoped) == {
            (("a1", "0"),): (1, 1), (("a2", "1"),): (2, 1), (("a1", "0"), ("a2", "1")): (1, 1)
        }
        # a line it reads raises the error a whole parse raises
        with pytest.raises(KBParseError) as got:
            read_model(raw, {"a1": "1"})
        with pytest.raises(KBParseError) as whole:
            parse_kb(raw.decode())
        assert str(got.value) == str(whole.value) == f"line {bad + 2}: bad probability '0x'"

    def test_rows_come_in_the_order_the_whole_model_selects_them(self):
        # 256 subsets against 203 lines: the whole model's selection looks
        # its rows up, in subset order, and the scoped model's scans its 3
        bodies = [[(f"a{i}", "1") for i in range(1, 9)], [("a1", "1")], [("a2", "1"), ("a3", "1")]]
        bodies += [[(f"b{i}", "1")] for i in range(200)]
        kb = KnowledgeBase(WeightedClause(Fraction(i % 5, 4 + i % 3), rule_clause(b))
                           for i, b in enumerate(bodies))
        raw = saved(kb)
        query = {f"a{i}": "1" for i in range(1, 9)}
        scoped, _ = read_model(raw, query)
        whole = parse_kb(raw.decode())
        assert list(tuple_counts(scoped)) == [tuple(b) for b in (bodies[1], bodies[2], bodies[0])]
        assert list(tuple_counts(active_kb(query, scoped))) == list(tuple_counts(scoped))
        assert answers(query, scoped) == answers(query, whole)

    def test_candidates_must_pay_for_their_bisects(self):
        # one bisect per line: 64 subsets pay against 10 lines, 128 do not
        kb = KnowledgeBase(WeightedClause(Fraction(1, 2), rule_clause([(f"b{i}", "1")]))
                           for i in range(10))
        raw = saved(kb)
        assert read_model(raw, {f"f{i}": "1" for i in range(6)}) is not None
        assert read_model(raw, {f"f{i}": "1" for i in range(7)}) is None


# Values past ASCII: UTF-8 byte order is code-point order, so the byte
# reader bisects such models as it does ASCII ones.
WIDE_VALUES = ["0", "1", "\u00e9", "\u65e5"]
# Edits to a saved body, resealed so that the checksum holds: each keeps
# the lines sorted by clause text, and at most one line fails a whole parse.
EDITS = ["none", "unterminated", "twice", "conflict", "malformed", "not-utf8", "cr"]


@st.composite
def edited_models(draw):
    """A saved rule-only model over ``WIDE_VALUES``, one of ``EDITS`` made
    to its body and its checksum recomputed; the edit; and the features
    its header names."""
    pair = st.tuples(st.sampled_from(FEATURES), st.sampled_from(WIDE_VALUES))
    bodies = draw(st.lists(st.lists(pair, max_size=4, unique_by=lambda p: p[0]),
                           max_size=12, unique_by=frozenset))
    kb = KnowledgeBase(WeightedClause(draw(_prob), rule_clause(b)) for b in bodies)
    header, body = saved(kb).split(b"\n", 1)
    lines = body.split(b"\n")[:-1]
    edit = draw(st.sampled_from(EDITS))
    i = draw(st.integers(0, len(lines) - 1))
    prob, _, text = lines[i].partition(b" ")
    if edit == "twice":
        lines.insert(i, lines[i])
    elif edit == "conflict":
        lines.insert(i + 1, (b"0" if prob == b"1" else b"1") + b" " + text)
    elif edit == "malformed":
        lines[i] = b"0x " + text
    elif edit == "not-utf8":
        lines[i] += b"\xff"
    elif edit == "cr":
        lines[i] += b"\r"
    body = b"\n".join(lines) + (b"" if edit == "unterminated" else b"\n")
    return resealed(header + b"\n" + body), edit, feature_names(kb)


def scoped_or_error(raw: bytes, query):
    """``read_model``'s rows as :func:`tuple_counts` items in order, with its
    feature names, or its error's message."""
    try:
        scoped, features = read_model(raw, query)
    except KBParseError as exc:
        return str(exc)
    return list(tuple_counts(scoped).items()), features


class TestByteReader:
    """The scoped load reads the body as bytes in place.  Against a whole
    parse: the rows :func:`relevant_kb` selects, in its order; the error of
    a line it reads, under the same number; and None where only a whole
    parse reads the body as ``str.splitlines`` does."""

    @settings(max_examples=300, deadline=None)
    @given(edited_models(), st.lists(queries(), min_size=1, max_size=4))
    def test_against_a_whole_parse(self, model, qs):
        raw, edit, features = model
        if edit in ("not-utf8", "cr"):
            assert all(read_model(raw, query) is None for query in qs)
            return
        text = raw.decode()
        lines = text.splitlines()
        try:
            whole, bad = parse_kb(text), None
        except KBParseError as exc:
            assert edit in ("conflict", "malformed")
            bad = exc
            whole = parse_kb("\n".join(lines[:exc.line_no - 1] + lines[exc.line_no:]))
        for query in [*qs, {f: v for f, v in whole.atoms}]:
            expected = list(tuple_counts(relevant_kb(query, whole)).items()), features
            got = scoped_or_error(raw, query)
            # a line that fails is read when the query selects its body
            assert got == expected or bad is not None and got == str(bad)

    def test_a_failing_line_is_numbered_by_the_newlines_before_it(self):
        kb = KnowledgeBase(WeightedClause(Fraction(1, 2), rule_clause([(f"a{i}", "1")]))
                           for i in range(1, 6))
        header, body = saved(kb).split(b"\n", 1)
        lines = body.split(b"\n")[:-1]
        lines[3] = b"2 " + lines[3].partition(b" ")[2]
        raw = resealed(header + b"\n" + b"\n".join(lines))  # no "\n" after the last line
        with pytest.raises(KBParseError) as whole:
            parse_kb(raw.decode())
        assert str(whole.value) == "line 5: probability 2 outside [0, 1]"
        assert scoped_or_error(raw, {"a4": "1"}) == str(whole.value)
        assert scoped_or_error(raw, {"a5": "1"}) == (
            [((("a5", "1"),), (2, 1))], ["a1", "a2", "a3", "a4", "a5"])


def trained_model(tmp_path) -> tuple[Path, Path]:
    data = tmp_path / "data.csv"
    data.write_text("a1,a2,a3,label\n0,1,1,pos\n1,1,0,neg\n0,0,1,pos\n1,0,0,neg\n"
                    "0,1,0,neg\n1,1,1,pos\n", encoding="utf-8")
    model = tmp_path / "model.plkb"
    result = CliRunner().invoke(main, ["train", "--input", str(data), "--label-col", "label",
                                       "--pos-label", "pos", "--out", str(model)])
    assert result.exit_code == 0, result.output
    return model, data


def run(*args):
    result = CliRunner().invoke(main, list(args))
    err = result.stderr if hasattr(result, "stderr") else result.output
    return result.exit_code, (json.loads(result.stdout) if result.exit_code == 0 else err)


QUERIES = ["a1=0,a2=1,a3=1", "a1=1", "a2=0,a3=0"]


class TestFallback:
    """Each file the scoped load declines reads as a whole parse of it does."""

    def expect_whole_parse(self, path: Path, data: Path):
        raw = path.read_bytes()
        whole = parse_kb(raw.decode())
        for text in QUERIES:
            query = dict(p.split("=") for p in text.split(","))
            assert read_model(raw, query) is None
            code, got = run("classify", "--kb", str(path), "--domains", str(data), "--query", text)
            assert code == 0 and got == asdict(classify_query(whole, query))
            code, got = run("explain", "--kb", str(path), "--domains", str(data),
                            "--query", text, "-k", "1")
            expl = compute_explanation(query, whole, 1)
            assert code == 0
            assert (got["explanation"], got["score"], got["direction"]) == (
                expl.sub_query, expl.score, expl.direction)

    def test_a_v1_file(self, tmp_path):
        model, data = trained_model(tmp_path)
        kb = parse_kb(model.read_text(encoding="utf-8"))
        v1 = tmp_path / "v1.plkb"
        v1.write_text("".join(f"{float(wc.probability):.6f} {wc.clause}\n" for wc in kb),
                      encoding="utf-8")
        self.expect_whole_parse(v1, data)

    @pytest.mark.parametrize("edit", ["append", "probability", "swap"])
    def test_an_edited_body(self, tmp_path, edit):
        model, data = trained_model(tmp_path)
        raw = model.read_bytes()
        lines = body_lines(raw)
        if edit == "append":
            lines.append("1/5 pos | !a1=0 | !a2=7")
        elif edit == "probability":
            i = next(i for i, l in enumerate(lines) if l.startswith("1 pos"))
            lines[i] = "0" + lines[i][1:]
        else:
            lines[0], lines[1] = lines[1], lines[0]
        model.write_bytes(with_body(raw, lines))
        self.expect_whole_parse(model, data)

    def test_a_clause_that_is_not_a_rule(self, tmp_path):
        model, data = trained_model(tmp_path)
        extra = tmp_path / "extra.plkb"
        extra.write_text("0.7 pos | a1=1 | a2=1\n", encoding="utf-8")
        mixed = tmp_path / "mixed.plkb"
        assert run("inject", "--kb", str(model), "--knowledge", str(extra),
                   "--out", str(mixed))[0] == 0
        assert mixed.read_text(encoding="utf-8").split("\n", 1)[0].endswith(
            " others=1 features=a1,a2,a3")
        self.expect_whole_parse(mixed, data)

    def test_an_appended_line_that_does_not_parse_is_refused(self, tmp_path):
        model, data = trained_model(tmp_path)
        n_lines = len(model.read_bytes().splitlines())
        with open(model, "a", encoding="utf-8") as fh:
            fh.write("zzz\n")
        code, err = run("classify", "--kb", str(model), "--domains", str(data),
                        "--query", QUERIES[0])
        assert code == 1
        assert err.splitlines() == [
            f"error: {model}: line {n_lines + 1}: expected 'probability clause', got 'zzz'"
        ]


class TestSavedModel:
    def test_header_and_body(self, tmp_path):
        model, data = trained_model(tmp_path)
        header, body = model.read_text(encoding="utf-8").split("\n", 1)
        crc = int(header.split()[3].removeprefix("crc32="), 16)
        assert header == f"# plkb 2 crc32={crc:08x} others=0 features=a1,a2,a3"
        fields = header.split(" ", 4)[4] + "\n"
        assert crc == zlib.crc32((fields + body).encode())
        assert body == serialize_kb(parse_kb(body)) + "\n"

    def test_the_header_is_a_comment(self, tmp_path):
        model, data = trained_model(tmp_path)
        text = model.read_text(encoding="utf-8")
        assert parse_kb(text) == parse_kb(text.split("\n", 1)[1])

    def test_without_header_classifies_the_same(self, tmp_path):
        model, data = trained_model(tmp_path)
        v1 = tmp_path / "v1.plkb"
        v1.write_text(model.read_text(encoding="utf-8").split("\n", 1)[1], encoding="utf-8")
        for text in QUERIES:
            args = ("--domains", str(data), "--query", text)
            got = [run("classify", "--kb", str(m), *args, "--dump-lp", f"{m}.lp")
                   for m in (model, v1)]
            assert got[0] == got[1]
            lp_texts = [Path(f"{m}.lp").read_bytes() for m in (model, v1)]
            assert lp_texts[0].startswith(b"\\ variable map\n") and lp_texts[0] == lp_texts[1]

    def test_an_empty_model(self, tmp_path):
        raw = saved(KnowledgeBase())
        assert raw.endswith(b" others=0 features=\n\n") and raw.count(b"\n") == 2
        scoped, features = read_model(raw, {"a1": "1"})
        assert len(scoped) == 0 and features == []


# 0.5000015 rounds to 0.500001 at 6 decimals, under LABEL_EPS above 0.5.
HALF_AND_A_BIT = Fraction("0.5000015")


@st.composite
def exact_kbs(draw):
    """Rules and other clauses with any exact probability, 0.5000015 among them."""
    prob = _prob | st.just(HALF_AND_A_BIT) | st.builds(
        Fraction, st.integers(0, 10**9), st.just(10**9))
    pair = st.tuples(st.sampled_from(FEATURES), st.sampled_from(VALUES))
    bodies = draw(st.lists(st.lists(pair, max_size=3, unique_by=lambda p: p[0]),
                           max_size=8, unique_by=frozenset))
    clauses = [WeightedClause(draw(prob), rule_clause(b)) for b in bodies]
    if draw(st.booleans()):
        atom = Atom(draw(st.sampled_from(FEATURES)), "1")
        clauses.append(WeightedClause(draw(prob), Clause([Literal(POS), Literal(atom)])))
    return KnowledgeBase(clauses)


def probabilities(kb: KnowledgeBase) -> dict:
    return {body: Fraction(pos, total) for body, (total, pos) in tuple_counts(kb).items()}


class TestExactRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(exact_kbs())
    def test_parse_of_serialize_is_the_kb(self, kb):
        loaded = parse_kb(serialize_kb(kb))
        assert loaded == kb
        assert probabilities(loaded) == probabilities(kb)
        assert loaded.others == kb.others

    def test_a_label_survives_the_round_trip(self):
        kb = KnowledgeBase([WeightedClause(HALF_AND_A_BIT, rule_clause([("a", "1")]))])
        assert serialize_kb(kb) == "1000003/2000000 pos | !a=1"
        raw = saved(kb)
        query = {"a": "1"}
        assert classify_query(kb, query).label is True
        assert classify_query(parse_kb(raw.decode()), query).label is True
        assert classify_query(read_model(raw, query)[0], query).label is True


class TestDuplicatedBody:
    def test_a_scoped_load_refuses_it_as_the_whole_parse_does(self, tmp_path):
        # two lines give one body two probabilities; the checksum holds
        model, data = trained_model(tmp_path)
        raw = model.read_bytes()
        lines = body_lines(raw)
        i = next(i for i, l in enumerate(lines) if l.endswith(" pos | !a1=0"))
        assert lines[i] == "2/3 pos | !a1=0"
        lines.insert(i + 1, "1/3 pos | !a1=0")
        model.write_bytes(resealed(with_body(raw, lines)))
        args = ("--kb", str(model), "--domains", str(data), "--query", "a1=0,a2=1")
        expected = [f"error: {model}: line {i + 3}: clause pos | !a1=0 already given "
                    f"probability 0.666667 on line {i + 2}"]
        for command in (["classify"], ["classify", "--full-kb"], ["explain", "-k", "1"]):
            code, err = run(*command, *args)
            assert code == 1, (command, err)
            assert err.splitlines() == expected, command


# Model text as the writer gives it, and as a hand edit or a damaged file
# may leave it.
_PROBS = ["0", "1", "1/2", "2/3", "0.25", "0.500000", "-0", "1e-999", "1/" + "7" * 300]
_BAD_PROBS = ["nan", "inf", "1e999", "1/0", "3/2", "-1/3", "0x1", "½", "", "1/" + "7" * 5000]
_LITERALS = ["pos", "!a1=0", "!a1=1", "!a2=0", "!a2=1", "!a3=1"]
_ODD_LITERALS = ["!b=x", "a1=0", "!pos", "a2", "é", "!a1=0=1", "!", "", " ", "#", "pos ", "!a1=\r0"]
_LINE_BREAKS = ["\n", "\n", "\n", "\r\n", "\r", "\u2028", "\x85", " "]
_TAILS = [b""] * 6 + [b"\xff", b"\xe9\n", b"\xe2\x80"]
FUZZ_CSV = "a1,a2,a3,label\n0,1,0,pos\n1,0,1,neg\n"


def _lines(probs, literals, sep=st.just(" ")):
    return st.builds(lambda p, s, lits: p + s + " | ".join(lits), st.sampled_from(probs), sep,
                     st.lists(st.sampled_from(literals), min_size=1, max_size=4))


@st.composite
def model_bytes(draw):
    """A model body of rule lines, now and then one damaged line or stray
    bytes, with no header, a valid v2 header (checksummed as
    ``write_model`` does), one that allows no scoped load, or one whose
    checksum fails."""
    lines = draw(st.lists(_lines(_PROBS, _LITERALS), max_size=6))
    damaged = draw(st.none() | st.one_of(
        _lines(_BAD_PROBS, _LITERALS),
        _lines(_PROBS, _LITERALS + _ODD_LITERALS),
        _lines(_PROBS, _LITERALS, st.sampled_from(["", "\t", "  "])),
        st.text(max_size=12),
    ))
    if damaged is not None:
        lines.insert(draw(st.integers(0, len(lines))), damaged)
    if draw(st.booleans()):
        lines.sort(key=lambda l: l.partition(" ")[2])
    br = draw(st.sampled_from(_LINE_BREAKS))
    body = "".join(l + br for l in lines).encode() + draw(st.sampled_from(_TAILS))
    header = draw(st.sampled_from(["none", "valid", "others", "bad-crc"]))
    if header == "none":
        return body
    features = draw(st.sampled_from(["", "a1", "a1,a2,a3", "a9"]))
    return headed(body, features, header)


def headed(body: bytes, features: str = "a1,a2,a3", header: str = "valid") -> bytes:
    """``body`` under a v2 header, checksummed as ``write_model`` does; with
    ``others=1`` for ``header="others"``, a wrong checksum for "bad-crc"."""
    fields = b"others=%d features=%s\n" % (header == "others", features.encode())
    crc = zlib.crc32(fields + body) ^ (header == "bad-crc")
    return b"# plkb 2 crc32=%08x " % crc + fields + body


class TestCliFuzz:
    """Whatever the model file holds, a command exits 0, or exits 1 with
    one ``error:`` line; no other exception escapes."""

    @pytest.fixture(scope="class")
    def paths(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("fuzz")
        (tmp / "data.csv").write_text(FUZZ_CSV, encoding="utf-8")
        return tmp / "model.plkb", tmp / "data.csv"

    @settings(max_examples=150, deadline=None)
    @given(model_bytes(), st.sampled_from(["a1=0,a2=1", "a1=1", "a1=0,a2=0,a3=1"]))
    @example(headed(b"1/2 pos\r1/3 pos | !a1=0\r"), "a1=0,a2=1")
    @example(headed("1/2 pos\u20281/3 pos | !a1=0\u2028".encode()), "a1=0,a2=1")
    @example(headed(b"1/2 pos | !a1=0\n1/3 pos | !a1=0\n"), "a1=0,a2=1")
    @example(headed(b"1/%s pos | !a1=0\n" % (b"7" * 5000)), "a1=0")
    @example(b"nan pos | !a1=0\n1e999 pos\n1/0 pos | !a2=1\n", "a1=0,a2=1")
    def test_exit_0_or_one_error_line(self, paths, raw, query):
        model, data = paths
        model.write_bytes(raw)
        args = ("--kb", str(model), "--domains", str(data), "--query", query)
        for command in (["classify"], ["explain", "-k", "1"], ["classify", "--full-kb"]):
            result = CliRunner().invoke(main, [*command, *args], catch_exceptions=False)
            if result.exit_code == 0:
                json.loads(result.stdout)
                assert result.stderr == ""
            else:
                lines = result.stderr.splitlines()
                assert result.exit_code == 1 and result.stdout == "", command
                assert len(lines) == 1 and lines[0].startswith("error: "), (command, lines)
