import pytest
from hypothesis import given, settings, strategies as st

from exam_eval.porter import stem


# ---------------------------------------------------------------------------
# Reference: the stemmer as first vendored, which walks every suffix of
# steps 2-4 and builds each measure letter by letter. The gated `stem` must
# agree with it on every word.

_VOWELS = "aeiou"


def _is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Number of VC sequences in the stem (the m of the algorithm)."""
    forms = ""
    for i in range(len(stem)):
        forms += "c" if _is_consonant(stem, i) else "v"
    m = 0
    prev = "c"
    for f in forms:
        if f == "c" and prev == "v":
            m += 1
        prev = f
    return m


def _has_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    return (len(word) >= 2 and word[-1] == word[-2]
            and _is_consonant(word, len(word) - 1))


def _ends_cvc(word: str) -> bool:
    if len(word) < 3:
        return False
    return (_is_consonant(word, len(word) - 3)
            and not _is_consonant(word, len(word) - 2)
            and _is_consonant(word, len(word) - 1)
            and word[-1] not in "wxy")


def _replace(word: str, suffix: str, repl: str, min_measure: int) -> str | None:
    if not word.endswith(suffix):
        return None
    stem = word[: len(word) - len(suffix)]
    if _measure(stem) > min_measure - 1:
        return stem + repl
    return word


def reference_stem(word: str) -> str:
    word = word.lower()
    if len(word) <= 2:
        return word

    # Step 1a
    if word.endswith("sses"):
        word = word[:-2]
    elif word.endswith("ies"):
        word = word[:-2]
    elif word.endswith("ss"):
        pass
    elif word.endswith("s"):
        word = word[:-1]

    # Step 1b
    if word.endswith("eed"):
        if _measure(word[:-3]) > 0:
            word = word[:-1]
    else:
        flag = False
        if word.endswith("ed") and _has_vowel(word[:-2]):
            word = word[:-2]
            flag = True
        elif word.endswith("ing") and _has_vowel(word[:-3]):
            word = word[:-3]
            flag = True
        if flag:
            if word.endswith(("at", "bl", "iz")):
                word += "e"
            elif _ends_double_consonant(word) and word[-1] not in "lsz":
                word = word[:-1]
            elif _measure(word) == 1 and _ends_cvc(word):
                word += "e"

    # Step 1c
    if word.endswith("y") and _has_vowel(word[:-1]):
        word = word[:-1] + "i"

    # Step 2
    for suffix, repl in (
            ("ational", "ate"), ("tional", "tion"), ("enci", "ence"),
            ("anci", "ance"), ("izer", "ize"), ("abli", "able"),
            ("alli", "al"), ("entli", "ent"), ("eli", "e"), ("ousli", "ous"),
            ("ization", "ize"), ("ation", "ate"), ("ator", "ate"),
            ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
            ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"),
            ("biliti", "ble")):
        out = _replace(word, suffix, repl, 1)
        if out is not None:
            word = out
            break

    # Step 3
    for suffix, repl in (
            ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
            ("ical", "ic"), ("ful", ""), ("ness", "")):
        out = _replace(word, suffix, repl, 1)
        if out is not None:
            word = out
            break

    # Step 4
    for suffix in ("al", "ance", "ence", "er", "ic", "able", "ible", "ant",
                   "ement", "ment", "ent", "ion", "ou", "ism", "ate", "iti",
                   "ous", "ive", "ize"):
        if word.endswith(suffix):
            stem_part = word[: len(word) - len(suffix)]
            if suffix == "ion" and not stem_part.endswith(("s", "t")):
                continue
            if _measure(stem_part) > 1:
                word = stem_part
            break

    # Step 5a
    if word.endswith("e"):
        stem_part = word[:-1]
        m = _measure(stem_part)
        if m > 1 or (m == 1 and not _ends_cvc(stem_part)):
            word = stem_part

    # Step 5b
    if _measure(word) > 1 and _ends_double_consonant(word) and word.endswith("l"):
        word = word[:-1]

    return word


# ---------------------------------------------------------------------------
# Porter (1980): the examples the paper gives for each step, stemmed in full.

CLASSIC = {
    # Step 1a
    "caresses": "caress", "ponies": "poni", "ties": "ti", "caress": "caress",
    "cats": "cat",
    # Step 1b
    "feed": "feed", "agreed": "agre", "plastered": "plaster", "bled": "bled",
    "motoring": "motor", "sing": "sing", "conflated": "conflat",
    "troubled": "troubl", "sized": "size", "hopping": "hop", "tanned": "tan",
    "falling": "fall", "hissing": "hiss", "fizzed": "fizz",
    "failing": "fail", "filing": "file",
    # No e is added after a stem that ends consonant, vowel, w, x or y
    "playing": "plai", "played": "plai", "toying": "toi", "boxing": "box",
    "snowed": "snow",
    # Step 1c
    "happy": "happi", "sky": "sky",
    # Step 2
    "relational": "relat", "conditional": "condit", "rational": "ration",
    "valenci": "valenc", "hesitanci": "hesit", "digitizer": "digit",
    "conformabli": "conform", "radicalli": "radic",
    "differentli": "differ", "vileli": "vile", "analogousli": "analog",
    "vietnamization": "vietnam", "predication": "predic",
    "operator": "oper", "feudalism": "feudal", "decisiveness": "decis",
    "hopefulness": "hope", "callousness": "callous", "formaliti": "formal",
    "sensitiviti": "sensit", "sensibiliti": "sensibl",
    # Step 3
    "triplicate": "triplic", "formative": "form", "formalize": "formal",
    "electriciti": "electr", "electrical": "electr", "hopeful": "hope",
    "goodness": "good",
    # Step 4
    "revival": "reviv", "allowance": "allow", "inference": "infer",
    "airliner": "airlin", "gyroscopic": "gyroscop", "adjustable": "adjust",
    "defensible": "defens", "irritant": "irrit", "replacement": "replac",
    "adjustment": "adjust", "dependent": "depend", "adoption": "adopt",
    "homologou": "homolog", "communism": "commun", "activate": "activ",
    "angulariti": "angular", "homologous": "homolog", "effective": "effect",
    "bowdlerize": "bowdler",
    # Step 5
    "probate": "probat", "rate": "rate", "cease": "ceas",
    "controll": "control", "roll": "roll",
    # Several steps in turn
    "generalizations": "gener", "oscillators": "oscil",
}


@pytest.mark.parametrize("word, expected", CLASSIC.items())
def test_classic_examples(word, expected):
    assert stem(word) == expected
    assert reference_stem(word) == expected


# Every suffix a rule of the algorithm looks for.
SUFFIXES = [
    "s", "ss", "ies", "sses", "ed", "eed", "ing", "at", "bl", "iz", "y",
    "ational", "tional", "enci", "anci", "izer", "abli", "alli", "entli",
    "eli", "ousli", "ization", "ation", "ator", "alism", "iveness",
    "fulness", "ousness", "aliti", "iviti", "biliti",
    "icate", "ative", "alize", "iciti", "ical", "ful", "ness",
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement", "ment",
    "ent", "sion", "tion", "ion", "ou", "ism", "ate", "iti", "ous", "ive",
    "ize", "e", "ll",
]
# Tokens of `normalize_answer`: lowercase letters, digits and apostrophes.
# Half are drawn without a, e, i, o or u, where the rules for "y" as a
# vowel decide the stem.
words = (st.text(alphabet="abcdefghijklmnopqrstuvwxyz'0", max_size=12)
         | st.text(alphabet="bcdlrsty", max_size=8))


@settings(max_examples=200)
@given(words)
def test_matches_reference(word):
    assert stem(word) == reference_stem(word)


@settings(max_examples=300)
@given(words, st.lists(st.sampled_from(SUFFIXES), max_size=3))
def test_matches_reference_with_suffixes(word, suffixes):
    word += "".join(suffixes)
    assert stem(word) == reference_stem(word)


def test_short_words_and_case():
    for word in ("", "a", "is", "IS", "Ponies"):
        assert stem(word) == reference_stem(word)
