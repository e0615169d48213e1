import importlib

import pytest

import centroidrank
from centroidrank import evaluation, retrieval, runs

# Names that ``runs`` defines and ``evaluation`` / ``retrieval`` hold. The
# first line of each is what the module uses itself. The second is what is
# read through it: by perfbench/spans.py TARGETS and the benchmark's
# ``ev.*`` calls (load_run, save_run, wilcoxon_signed_rank), by ``cli``
# (save_run), and by the benchmark's ``from centroidrank.retrieval import
# Method``.
RUN_REEXPORTS = {
    evaluation: (
        "DEFAULT_CUTOFF", "OVERLAP_THRESHOLD", "Method", "QuestionScore", "RankedList",
        "RunResult",
        "load_run", "save_run", "wilcoxon_signed_rank",
    ),
    retrieval: ("RankedList", "Method"),
}


def test_all_is_the_export_map():
    assert centroidrank.__all__ == list(centroidrank._EXPORTS)
    assert len(set(centroidrank.__all__)) == len(centroidrank.__all__)


@pytest.mark.parametrize("name", centroidrank.__all__)
def test_name_resolves_to_its_defining_module(name):
    module = importlib.import_module(f"centroidrank.{centroidrank._EXPORTS[name]}")
    assert getattr(centroidrank, name) is getattr(module, name)
    assert name in dir(centroidrank)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        centroidrank.no_such_name  # noqa: B018


@pytest.mark.parametrize(
    ("module", "name"),
    [(module, name) for module, names in RUN_REEXPORTS.items() for name in names],
    ids=lambda v: getattr(v, "__name__", v),
)
def test_run_names_are_reexported(module, name):
    assert getattr(module, name) is getattr(runs, name)

