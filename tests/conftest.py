import pytest

from exam_eval.formats import GradeStore
from exam_eval.gateway import (
    CompletionRequest,
    CompletionResponse,
    MockBackend,
)
from exam_eval.model import (
    ExamQuestion,
    Facet,
    Grade,
    GradeIndex,
    Passage,
    Query,
    QuestionBank,
    Run,
)

# The skin-anatomy worked example used throughout the suite: one judged
# passage, one hand-authored question with a gold answer, one generated
# question without.

SKIN_QUERY_ID = "tqa2:L_0384"
SKIN_PASSAGE_ID = "b95bf325b7fdacac183b1daf7c118be407f52a3a"
SKIN_PASSAGE_TEXT = (
    "The skin is the largest organ in the human body. Skin is made up of "
    "three layers, the epidermis, dermis and the fat layer, also called "
    "the hypodermis. The epidermis is the outer layer of skin that keeps "
    "vital fluids in and harmful bacteria out of the body. The dermis is "
    "the inner layer of skin that contains blood vessels, nerves, hair "
    "follicles, oil, and sweat glands. Severe damage to large areas of "
    "skin exposes the human organism to dehydration and infections that "
    "can result in death."
)


@pytest.fixture
def skin_query():
    return Query(
        query_id=SKIN_QUERY_ID,
        title="The Integumentary System",
        facets=(Facet("structure-of-the-skin", "Structure of the Skin"),))


@pytest.fixture
def skin_passage():
    return Passage(SKIN_PASSAGE_ID, SKIN_PASSAGE_TEXT)


@pytest.fixture
def tqa_question():
    return ExamQuestion(
        question_id="NDQ_007535",
        query_id=SKIN_QUERY_ID,
        text="Outer layer of the skin?",
        gold_answer="epidermis")


@pytest.fixture
def generated_question():
    return ExamQuestion(
        question_id=f"{SKIN_QUERY_ID}/structure-of-the-skin/0",
        query_id=SKIN_QUERY_ID,
        facet_id="structure-of-the-skin",
        text="How does the epidermis, dermis, and hypodermis work together "
             "to provide protection, sensation, and regulation for the body?")


@pytest.fixture
def skin_bank(tqa_question, generated_question):
    return QuestionBank({SKIN_QUERY_ID: (tqa_question, generated_question)})


def make_run(tag, entries):
    """entries: list of (query_id, passage_id); ranks assigned in order,
    queries kept in first-seen order."""
    by_query = {}
    for query_id, passage_id in entries:
        rows = by_query.setdefault(query_id, [])
        rank = len(rows) + 1
        rows.append((passage_id, rank, float(1000 - rank)))
    return Run(tag, by_query)


def grade_index(grades, policy):
    """An index of in-memory grades under the policy; a question graded
    twice for the same pair keeps its last grade."""
    return GradeIndex({g.key: (g.answer_text, g.verified, g.rating)
                       for g in grades}, policy)


def stored_grades(store: GradeStore) -> list[Grade]:
    """Every grade the store reads back, as `Grade` records."""
    return [Grade(*key, *row) for key, row in store.read().items()]


class RecordingBackend(MockBackend):
    """A mock backend that keeps every request it is sent."""

    def __init__(self, responses):
        super().__init__(responses)
        self.request_log: list[CompletionRequest] = []

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        self.request_log.append(request)
        return super().complete(request)
