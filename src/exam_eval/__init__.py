"""Exam-style evaluation of retrieval and generation system responses.

Question banks define what relevant information looks like; a grading
backend decides which questions each passage can answer; coverage scores,
derived qrels, leaderboards, and agreement tables fall out of the grades.
The `exam-eval` command (`exam_eval.cli`) runs each stage; the library
lives in the submodules.
"""
