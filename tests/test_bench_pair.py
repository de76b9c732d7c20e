"""The summary that tools/bench_pair.py writes into BENCH_<n>.json."""

import importlib.util
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location(
    "bench_pair", Path(__file__).resolve().parent.parent / "tools" / "bench_pair.py"
)
bench_pair = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pair)

METRICS = [
    {"name": "steps_per_s", "better": "higher", "bound": 0.25},
    {"name": "setup_s", "better": "lower", "bound": 0.25},
]


def runs(steps, setup):
    return [{"metrics": {"steps_per_s": a, "setup_s": b}} for a, b in zip(steps, setup)]


def test_summary_pairs_runs_in_order():
    summary = bench_pair.summarize(
        {"parent": runs([100, 110, 90, 105, 95], [0.2, 0.2, 0.2, 0.2, 0.2]),
         "change": runs([120, 100, 130, 125, 96], [0.1, 0.3, 0.2, 0.1, 0.1])},
        METRICS,
    )
    steps = summary["steps_per_s"]
    assert steps["parent"] == {"median": 100, "q1": 95, "q3": 105}
    assert steps["change"] == {"median": 120, "q1": 100, "q3": 125}
    assert steps["ratio"] == pytest.approx(1.2)
    assert (steps["pairs_won"], steps["pairs"]) == (4, 5)  # pair 1 lost
    # lower is better for setup_s, and a tie counts for neither side
    assert summary["setup_s"]["pairs_won"] == 3


@pytest.mark.parametrize(
    "parent, change, expected",
    [
        # the change's median is 30% below the parent's: worse than the 25% bound
        ([100] * 10, [70] * 10, "regression"),
        # the parent's own quartile spread (40%) exceeds the bound, and the
        # runs overlap: a 10% gain cannot be told from noise
        ([60, 140] * 5, [66, 154] * 5, "unresolved"),
        # the same spread, but every change run beats every parent run, all
        # ten pairs are won and the medians differ by more than the spread
        ([60, 140] * 5, [190, 200] * 5, "gain"),
        # a 1% shift inside a 4% spread: no gain, no regression
        ([98, 102] * 5, [99, 103] * 5, "no regression"),
    ],
)
def test_verdict_follows_the_benchmark_rules(parent, change, expected):
    summary = bench_pair.summarize(
        {"parent": runs(parent, [0.2] * 10), "change": runs(change, [0.2] * 10)}, METRICS
    )
    assert summary["steps_per_s"]["verdict"] == expected
    assert summary["setup_s"]["verdict"] == "no regression"  # every pair tied


def test_checkout_tree_is_the_working_directory(tmp_path, monkeypatch):
    # tracked edits and untracked files are measured, ignored ones are not,
    # and the repository's own index is left as it was
    repo = tmp_path / "repo"
    repo.mkdir()
    monkeypatch.setattr(bench_pair, "ROOT", repo)
    git = bench_pair.git
    git("init", "-q")
    (repo / ".gitignore").write_text("out/\n")
    (repo / "a.py").write_text("old\n")
    git("add", ".")
    git("-c", "user.name=t", "-c", "user.email=t@t", "commit", "-qm", "base")
    (repo / "a.py").write_text("new\n")
    (repo / "b.py").write_text("untracked\n")
    (repo / "out").mkdir()
    (repo / "out" / "x").write_text("ignored\n")
    tree = bench_pair.checkout_tree(tmp_path)
    assert git("diff", "--cached", "--name-only") == ""  # nothing staged
    bench_pair.export(tree, tmp_path / "change")
    got = sorted(p.name for p in (tmp_path / "change").iterdir())
    assert got == [".gitignore", "a.py", "b.py"]
    assert (tmp_path / "change" / "a.py").read_text() == "new\n"
