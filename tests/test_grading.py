import math
import string
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from exam_eval import gateway, grading
from exam_eval.formats import GradeStore
from exam_eval.gateway import (
    BackendError,
    MockBackend,
    render_qa_prompt,
    render_self_rating_prompt,
    token_count,
    truncate_context,
)
from exam_eval.grading import (
    build_passage_pool,
    edit_distance_below,
    grade_corpus,
    grade_pair,
    normalize_answer,
    parse_self_rating,
    verify_answer,
)
from exam_eval.model import (
    ContractViolation,
    ExamQuestion,
    QA_VERIFIED,
    QuestionBank,
    SELF_RATED,
)
from conftest import RecordingBackend, make_run, stored_grades
from oracles import levenshtein, reference_verify


class TestNormalizeAnswer:
    def test_worked_example(self):
        # lowercase, drop "the", Porter-stem epidermis -> epidermi
        assert normalize_answer("The Epidermis") == "epidermi"

    def test_empty(self):
        assert normalize_answer("") == ""

    def test_all_stopwords(self):
        assert normalize_answer("a the of") == ""


# Small alphabets make near matches common; words make stems and stopwords.
near_text = st.text(alphabet="abcde", max_size=25)
answer_text = st.lists(
    st.sampled_from(["the", "a", "of", "layer", "layers", "Layer", "skin",
                     "epidermis", "dermis", "outer", "cells", "cell", "x1",
                     "don't", "ABC", "abd", "-", ",", " "]),
    max_size=8).map(" ".join)


def edited_pairs(alphabet, **size):
    """Pairs of a drawn text and that text after a few drawn
    single-character edits, both over `alphabet`."""
    def edits_of(text):
        def apply(edits):
            chars = list(text)
            for op, at, c in edits:
                if op == 0:
                    chars.insert(at, c)
                elif at < len(chars):
                    chars[at:at + 1] = [] if op == 1 else [c]
            return text, "".join(chars)
        edit = st.tuples(st.integers(0, 2), st.integers(0, len(text)),
                         st.sampled_from(alphabet))
        return st.lists(edit, max_size=max(2, len(text) // 3)).map(apply)
    return st.text(alphabet=alphabet, **size).flatmap(edits_of)


# Pairs past the short-string cases: strings longer than 64 characters, so
# the bit vectors pass a machine word, and text with an astral character
# and a combining mark.
long_and_astral_pairs = st.one_of(
    edited_pairs("abcd", min_size=65, max_size=160),
    edited_pairs("a\u00e9\U0001f600\u0301 ", max_size=25),
)


def check_distance(a, b, scale):
    """`edit_distance_below` at `scale` times the 20 % rule's limit for the
    pair, in both argument orders, against the full table."""
    limit = scale * 0.2 * max(len(a), len(b))
    expected = levenshtein(a, b) < limit
    assert edit_distance_below(a, b, limit) == expected
    assert edit_distance_below(b, a, limit) == expected


class TestVerifyAnswer:
    def test_exact_match(self):
        assert verify_answer("epidermis", "epidermis")

    def test_stopword_difference_matches(self):
        assert verify_answer("the epidermis", "epidermis")

    def test_different_layer_rejected(self):
        # "dermi" vs "epidermi": distance 3 >= 0.2 * 8
        assert not verify_answer("dermis", "epidermis")

    def test_empty_gold_rejected(self):
        with pytest.raises(ContractViolation):
            verify_answer("x", "")

    def test_stopword_only_gold_falls_back_to_raw(self):
        assert verify_answer("the", "the")
        assert not verify_answer("zebra", "the")

    @given(st.text(alphabet="abcdefgh ", min_size=1, max_size=30))
    def test_reflexive(self, text):
        assert verify_answer(text, text)

    @given(st.text(alphabet="abc", max_size=8), st.text(alphabet="abc", max_size=8))
    def test_levenshtein_matches_symmetric(self, a, b):
        assert levenshtein(a, b) == levenshtein(b, a)
        assert levenshtein(a, b) <= max(len(a), len(b))

    @pytest.mark.parametrize("scale", [1, 2, 5])
    @settings(max_examples=100)
    @given(a=near_text, b=near_text)
    def test_banded_check_matches_full_table(self, scale, a, b):
        check_distance(a, b, scale)

    @pytest.mark.parametrize("scale", [1, 2, 5])
    @settings(max_examples=100)
    @given(pair=st.text(alphabet="abcdefgh", max_size=25).flatmap(
        lambda a: st.tuples(st.just(a), st.permutations(a).map("".join))))
    def test_anagrams_pass_the_bag_bound_to_the_table(self, scale, pair):
        # An anagram's bag distance is 0, whatever its edit distance, so
        # the bag bound settles none of these: the table decides each.
        check_distance(*pair, scale)

    @pytest.mark.parametrize("scale", [1, 2, 5])
    @settings(max_examples=100)
    @given(a=st.text(alphabet="abcde", max_size=25),
           b=st.text(alphabet="vwxyz", max_size=25),
           over=st.floats(0, 1, exclude_min=True))
    def test_disjoint_alphabets_settled_by_the_bag_bound(self, scale, a, b,
                                                         over):
        # Strings sharing no character: the bag distance is the longer
        # length n, which is also the edit distance. The 20 % rule's
        # limits lie below n; a limit in (n, n + 1] allows exactly n.
        check_distance(a, b, scale)
        limit = max(len(a), len(b)) + over
        expected = levenshtein(a, b) < limit
        assert edit_distance_below(a, b, limit) == expected
        assert edit_distance_below(b, a, limit) == expected

    @settings(max_examples=100)
    @given(pair=long_and_astral_pairs, scale=st.sampled_from([1, 2, 5]))
    def test_long_and_astral_pairs_match_full_table(self, pair, scale):
        check_distance(*pair, scale)

    @pytest.mark.parametrize("a, b, distance", [
        ("", "", 0), ("abc", "", 3), ("kitten", "sitting", 3),
        ("flaw", "lawn", 2), ("epidermi", "dermi", 3), ("abcd", "dcba", 4)])
    def test_banded_check_at_integer_limits(self, a, b, distance):
        assert levenshtein(a, b) == distance
        assert not edit_distance_below(a, b, distance)
        assert edit_distance_below(a, b, distance + 1)
        assert edit_distance_below(a, b, math.nextafter(distance, math.inf))
        assert not edit_distance_below(a, b, math.nextafter(distance, 0))

    @given(answer_text, answer_text.filter(bool))
    def test_matches_full_table_reference(self, predicted, gold):
        assert verify_answer(predicted, gold) == reference_verify(
            predicted, gold, normalize_answer)

    @given(near_text, near_text.filter(bool))
    def test_near_strings_match_full_table_reference(self, predicted, gold):
        assert verify_answer(predicted, gold) == reference_verify(
            predicted, gold, normalize_answer)


class TestParseSelfRating:
    @pytest.mark.parametrize("completion,expected", [
        ("4: The answer is mostly relevant and complete", 4),
        ("unanswerable", 0),
        ("the context seems related", 1),
        ("0", 0),
        ("5", 5),
        ("rating of 3 seems right", 3),
        ("no", 0),
        ("normal response without digits", 1),
        ("there is no answer here", 0),
        ("it is not possible to tell", 0),
        ("not enough information", 0),
        ("I'd say 10 out of 10", 1),  # no standalone 0-5 digit
        ("", 1),
    ])
    def test_fallback_rules(self, completion, expected):
        assert parse_self_rating(completion) == expected

    # Characters and the words the rules look for, not all of Unicode:
    # `st.text()` builds Hypothesis's Unicode table on first use, seconds
    # on a fresh checkout. The Arabic-Indic three is a digit to `\d`.
    @given(st.lists(
        st.sampled_from(string.digits + string.ascii_letters + " \n"
                        + string.punctuation + "\u0663")
        | st.sampled_from([f" {words} " for words
                           in (*grading.UNANSWERABLE_PHRASES, "no")]),
        max_size=50).map("".join))
    def test_total_function(self, completion):
        assert parse_self_rating(completion) in range(6)


class TestGradePair:
    def test_verified_worked_example(self, tqa_question, skin_passage):
        backend = MockBackend({"default": "epidermis"})
        key, row = grade_pair(tqa_question, *skin_passage, QA_VERIFIED, 512,
                              backend)
        assert row == ("epidermis", True, None)
        assert key == (tqa_question.query_id, skin_passage[0],
                       tqa_question.question_id, QA_VERIFIED)

    def test_self_rating_worked_example(self, generated_question, skin_passage):
        backend = MockBackend({"default": (
            "4: The answer is mostly relevant and complete but may have "
            "minor gaps or inaccuracies.")})
        _, (_, _, rating) = grade_pair(generated_question, *skin_passage,
                                       SELF_RATED, 512, backend)
        assert rating == 4

    def test_qa_requires_gold_answer(self, generated_question, skin_passage):
        with pytest.raises(ContractViolation):
            grade_pair(generated_question, *skin_passage, QA_VERIFIED, 512,
                       MockBackend({}))


class FailingBackend:
    def complete(self, request):
        raise BackendError("backend down")


class TestGradeCorpus:
    def bank_and_passages(self):
        bank = QuestionBank({
            "q1": tuple(ExamQuestion(f"q1/q/{i}", "q1", f"A{i}?")
                        for i in range(3)),
            "q2": tuple(ExamQuestion(f"q2/q/{i}", "q2", f"B{i}?")
                        for i in range(3)),
        })
        passages = {
            "q1": {f"p{i}": f"text {i}" for i in range(4)},
            "q2": {f"r{i}": f"text {i}" for i in range(4)},
        }
        return bank, passages

    def test_cardinality(self, tmp_path):
        bank, passages = self.bank_and_passages()
        store = GradeStore(tmp_path / "g.jsonl.gz")
        backend = RecordingBackend({"default": "3"})
        summary = grade_corpus(bank, passages, SELF_RATED, store, backend,
                               512, 1)
        assert summary.graded == 24
        assert len(stored_grades(store)) == 24
        assert len(backend.request_log) == 24

    def test_resume_skips_complete_store(self, tmp_path):
        bank, passages = self.bank_and_passages()
        store = GradeStore(tmp_path / "g.jsonl.gz")
        grade_corpus(bank, passages, SELF_RATED, store,
                     MockBackend({"default": "3"}), 512, 1)
        before = store.path.read_bytes()
        backend = RecordingBackend({"default": "3"})
        summary = grade_corpus(bank, passages, SELF_RATED, store, backend,
                               512, 1)
        assert summary.graded == 0
        assert summary.skipped_existing == 24
        assert backend.request_log == []
        assert store.path.read_bytes() == before

    def test_torn_store_regrades_the_torn_batch(self, tmp_path):
        # A second `grade` cut short inside its member: the next `grade`
        # requests exactly that batch's pairs, cuts the torn member off and
        # leaves the store an untorn run leaves; the one after requests
        # nothing.
        bank, passages = self.bank_and_passages()
        store = GradeStore(tmp_path / "g.jsonl.gz")
        grade_corpus(bank, {"q1": passages["q1"]}, SELF_RATED, store,
                     MockBackend({"default": "3"}), 512, 1)
        start = store.path.stat().st_size
        grade_corpus(bank, passages, SELF_RATED, store,
                     MockBackend({"default": "3"}), 512, 1)
        untorn = store.path.read_bytes()
        for cut in (start + 1, (start + len(untorn)) // 2, len(untorn) - 1):
            store.path.write_bytes(untorn[:cut])
            backend = RecordingBackend({"default": "3"})
            summary = grade_corpus(bank, passages, SELF_RATED, store,
                                   backend, 512, 1)
            assert sorted((r.metadata["question_id"], r.metadata["passage_id"])
                          for r in backend.request_log) == [
                (f"q2/q/{i}", f"r{j}") for i in range(3) for j in range(4)]
            assert (summary.graded, summary.skipped_existing) == (12, 12)
            assert store.path.read_bytes() == untorn
            backend = RecordingBackend({"default": "3"})
            grade_corpus(bank, passages, SELF_RATED, store, backend, 512, 1)
            assert backend.request_log == []

    def test_failures_go_to_skip_log(self, tmp_path):
        bank, passages = self.bank_and_passages()
        store = GradeStore(tmp_path / "g.jsonl.gz")
        summary = grade_corpus(bank, passages, SELF_RATED, store,
                               FailingBackend(), 512, 1)
        assert summary.graded == 0
        assert len(summary.failures) == 24
        # Request accounting: grades + skip-log covers every pair.
        assert summary.graded + len(summary.failures) == 24

    def test_question_without_gold_answer_sends_no_request(self, tmp_path):
        bank, passages = self.bank_and_passages()
        backend = RecordingBackend({"default": "alpha"})
        summary = grade_corpus(bank, passages, QA_VERIFIED,
                               GradeStore(tmp_path / "g.jsonl.gz"), backend,
                               512, 1)
        assert backend.request_log == []
        assert summary.graded == 0
        assert len(summary.failures) == 24
        assert {f.reason for f in summary.failures} == {"no gold answer"}

    def test_parallel_matches_serial(self, tmp_path):
        bank, passages = self.bank_and_passages()
        serial_store = GradeStore(tmp_path / "serial.jsonl.gz")
        grade_corpus(bank, passages, SELF_RATED, serial_store,
                     MockBackend({"default": "2"}), 512, 1)
        parallel_store = GradeStore(tmp_path / "parallel.jsonl.gz")
        grade_corpus(bank, passages, SELF_RATED, parallel_store,
                     MockBackend({"default": "2"}), 512, 4)
        assert sorted(stored_grades(serial_store)) \
            == sorted(stored_grades(parallel_store))

    def test_gold_answer_normalized_once_per_question(self, tmp_path,
                                                      monkeypatch):
        golds = {f"q{q}/q/{i}": f"the outer layers of cell wall {q}{i}"
                 for q in (1, 2) for i in range(3)}
        bank = QuestionBank({
            f"q{q}": tuple(ExamQuestion(f"q{q}/q/{i}", f"q{q}", f"Q{i}?",
                                        gold_answer=golds[f"q{q}/q/{i}"])
                           for i in range(3))
            for q in (1, 2)})
        passages = {f"q{q}": {f"p{q}{j}": f"text {j}" for j in range(4)}
                    for q in (1, 2)}
        # Exact (in capitals, so it is not the gold text), near,
        # stopword-only and unrelated answers.
        answers = ["{gold}", "Outer Layer of the cells wall {tag}", "the",
                   "zebra {tag}"]
        responses = {f"{qid}/p{qid[1]}{j}": answer.format(
                         gold=gold.upper(), tag=qid[1] + qid[-1])
                     for qid, gold in golds.items()
                     for j, answer in enumerate(answers)}
        calls = Counter()
        normalize = grading.normalize_answer

        def counting(text):
            calls[text] += 1
            return normalize(text)

        monkeypatch.setattr(grading, "normalize_answer", counting)
        grading._gold_form.cache_clear()
        store = GradeStore(tmp_path / "g.jsonl.gz")
        summary = grade_corpus(bank, passages, QA_VERIFIED, store,
                               MockBackend(responses), 512, 1)
        assert summary.graded == 24
        assert {gold: calls[gold] for gold in golds.values()} \
            == dict.fromkeys(golds.values(), 1)
        expected = {
            (qid[:2], pid, qid, QA_VERIFIED): (
                responses[f"{qid}/{pid}"],
                reference_verify(responses[f"{qid}/{pid}"], gold,
                                 normalize_answer), None)
            for qid, gold in golds.items()
            for pid in (f"p{qid[1]}{j}" for j in range(4))}
        assert store.read() == expected
        assert any(row[1] for row in expected.values())
        assert not all(row[1] for row in expected.values())

    def test_each_question_text_is_rendered_once_in_any_bank(self,
                                                             tmp_path):
        # Every query's allowance is taken before any pair is graded, so a
        # bounded cache of empty-context prompts would lose the first
        # questions of a bank larger than it before their pairs are cut.
        bank = QuestionBank({f"q{i}": (ExamQuestion(
            f"q{i}/q/0", f"q{i}", f"Question {i}?"),) for i in range(1100)})
        passages = {f"q{i}": {"p": "text"} for i in range(1100)}
        gateway._fixed_tokens.cache_clear()
        summary = grade_corpus(bank, passages, SELF_RATED,
                               GradeStore(tmp_path / "g.jsonl.gz"),
                               MockBackend({"default": "3"}), 512, 1)
        assert summary.graded == 1100
        assert gateway._fixed_tokens.cache_info().misses == 1100

    def test_question_over_budget_is_skip_logged(self, tmp_path):
        bank, passages = self.bank_and_passages()
        long_question = ExamQuestion(
            "q1/q/long", "q1", " ".join(["word"] * 600))
        bank = QuestionBank({"q1": bank.questions_for("q1") + (long_question,),
                             "q2": bank.questions_for("q2")})
        store = GradeStore(tmp_path / "g.jsonl.gz")
        summary = grade_corpus(bank, passages, SELF_RATED, store,
                               MockBackend({"default": "3"}), 512, 1)
        assert summary.graded == 24
        assert [(f.passage_id, f.question_id) for f in summary.failures] \
            == [(f"p{i}", "q1/q/long") for i in range(4)]
        assert {f.reason for f in summary.failures} == {
            "question and template alone need 691 tokens, budget is 512"}
        assert len(store.read()) == 24


@pytest.mark.parametrize("mode", [QA_VERIFIED, SELF_RATED])
def test_braces_passage_is_graded(tmp_path, mode):
    # Braces in a passage or question are text, not template placeholders.
    # A passage far over the budget is cut for the template that is sent.
    long_text = " ".join(f"{{w{i}}}" for i in range(2000))
    bank = QuestionBank({"q1": (
        ExamQuestion("q1/q/0", "q1", "What does {config} set?",
                     gold_answer="the {config} block"),)})
    passages = {"q1": {
        "p-braces": 'It sets {config} = {"depth": 20} here.',
        "p-plain": "plain text",
        "p-long": long_text}}
    backend = RecordingBackend({"q1/q/0/p-braces": "5: the {config} block",
                                "default": "0"})
    store = GradeStore(tmp_path / "g.jsonl.gz")
    summary = grade_corpus(bank, passages, mode, store, backend, 512, 1)
    assert summary.graded == 3 and not summary.failures
    prompts = {r.metadata["passage_id"]: r.prompt
               for r in backend.request_log}
    assert prompts["p-braces"].endswith(
        'Question: What does {config} set?\n'
        'Context: It sets {config} = {"depth": 20} here.')
    assert len(prompts["p-long"].split()) == 512
    head, _, cut = prompts["p-long"].rpartition("Context: ")
    assert head.endswith("Question: What does {config} set?\n")
    assert cut and long_text.startswith(cut)
    by_pid = {key[1]: row for key, row in stored_grades(store)}
    if mode == QA_VERIFIED:
        assert by_pid["p-braces"][1] is True
        assert by_pid["p-plain"][1] is False
    else:
        assert by_pid["p-braces"][2] == 5
        assert by_pid["p-plain"][2] == 0


@pytest.mark.parametrize("mode", [QA_VERIFIED, SELF_RATED])
def test_prompts_cut_from_a_shared_split_are_each_questions_own_cut(tmp_path,
                                                                   mode):
    # Questions of four lengths, one over the budget, asked of passages far
    # under, near and over it; both queries have passages of the same ids
    # but different texts, so a split of one query's passage must not be
    # used for the other's.
    def words(n, stem, sep=" "):
        return sep.join(f"{stem}{i}" for i in range(n))

    bank = QuestionBank({query_id: tuple(
        ExamQuestion(f"{query_id}/q/{i}", query_id, words(n, "w") + "?",
                     gold_answer="gold")
        for i, n in enumerate((1, 3, 9, 120))) for query_id in ("q1", "q2")})
    passages = {
        "q1": {"p0": "", "p1": words(20, "a"), "p2": words(110, "b"),
               "p3": words(400, "c")},
        "q2": {"p0": words(30, "dd", "\t"), "p1": words(105, "e", "\n "),
               "p2": " ", "p3": words(300, "ffff", "\u3000")}}
    render = (render_qa_prompt if mode == QA_VERIFIED
              else render_self_rating_prompt)
    budget = 128
    backend = RecordingBackend({"default": "4"})
    summary = grade_corpus(bank, passages, mode,
                           GradeStore(tmp_path / "g.jsonl.gz"), backend,
                           budget, 1)
    questions = {q.question_id: q.text for query_id in bank.query_ids
                 for q in bank.questions_for(query_id)}
    fitting = [qid for qid, text in questions.items()
               if token_count(render(text, "")) <= budget]
    assert [(r.metadata["question_id"], r.metadata["passage_id"])
            for r in backend.request_log] \
        == [(qid, pid) for qid in fitting for pid in passages[qid[:2]]]
    assert {(f.question_id, f.passage_id) for f in summary.failures} \
        == {(qid, pid) for qid in questions.keys() - set(fitting)
            for pid in passages[qid[:2]]}
    for request in backend.request_log:
        question = questions[request.metadata["question_id"]]
        text = passages[request.metadata["query_id"]][
            request.metadata["passage_id"]]
        assert request.prompt == render(question, truncate_context(
            question, text, budget, render))


class TestPassagePool:
    def test_union_of_runs_and_judgments(self):
        run_a = make_run("a", [("q1", "p1"), ("q1", "p2")])
        run_b = make_run("b", [("q1", "p2"), ("q1", "p3")])
        judgments = {("q1", "p9"): 2, ("q2", "p1"): 0}
        pool = build_passage_pool([run_a, run_b], depth=20,
                                  judgments=judgments)
        assert pool["q1"] == ["p1", "p2", "p3", "p9"]
        assert pool["q2"] == ["p1"]

    def test_depth_cut(self):
        run = make_run("a", [("q1", f"p{i}") for i in range(30)])
        pool = build_passage_pool([run], depth=20)
        assert len(pool["q1"]) == 20
