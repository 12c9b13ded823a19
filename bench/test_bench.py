"""Tests of the benchmark itself: seeded inputs, output checks, self time."""

import importlib
import io
import random
from contextlib import redirect_stdout
from pathlib import Path

import gen
import run
import tracing


def _files(root: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    for workload in ("orbit-zeta", "series-files"):
        a = gen.build(workload, 7, str(tmp_path / "a" / workload))
        b = gen.build(workload, 7, str(tmp_path / "b" / workload))
        c = gen.build(workload, 8, str(tmp_path / "c" / workload))
        assert [j.expected for j in a] == [j.expected for j in b]
        assert _files(tmp_path / "a" / workload) == _files(tmp_path / "b" / workload)
        assert _files(tmp_path / "a" / workload) != _files(tmp_path / "c" / workload)
        assert len(a) >= 100
    # The persistence workload's files come from planted_complex alone.
    first = gen.planted_complex(random.Random("persistence:7"), 300)
    again = gen.planted_complex(random.Random("persistence:7"), 300)
    other = gen.planted_complex(random.Random("persistence:8"), 300)
    assert first == again != other


class _FakeCli:
    """Prints a fixed text, as cli.main prints a report."""

    def __init__(self, text, code=0):
        self.text, self.code = text, code

    def main(self, argv):
        print(self.text, end="")
        return self.code


def test_tampered_stdout_counts_as_failure():
    job = gen.Job("s", ["zeta-toric"], gen.series_text({0: 1, 1: 2}, 2), {})
    assert job.expected == "0\t1\n1\t2\ncutoff\t2\n"
    tampered = job.expected.replace("1\t2", "1\t3")
    loop = run.Loop()
    for cli in (_FakeCli(job.expected), _FakeCli(tampered),
                _FakeCli(job.expected, code=2), _FakeCli(job.expected[:-1])):
        loop.run_pass(cli, [job])
    assert loop.attempted == 4
    assert [(index, reason) for index, _, reason in loop.failures] == [
        (0, "line 2: got '1\\t3\\n', expected '1\\t2\\n'"),
        (0, "exit 2"),
        (0, "line 3: got 'cutoff\\t2', expected 'cutoff\\t2\\n'"),
    ]


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("b", 3.0, 6.0, 0, 0),     # overlaps a: the union of root's children counts once
        ("a.child", 2.0, 3.0, 1, 0),
        ("c", 9.0, 12.0, 0, 0),    # runs past root's end: clipped to root
        ("other", 20.0, 21.0, -1, 1),
    ]
    assert tracing.self_times(spans) == [4.0, 2.0, 3.0, 1.0, 3.0, 1.0]


def test_tracer_records_nested_spans_and_restores_bindings():
    cli = importlib.import_module("reebzeta.cli")
    serialize = importlib.import_module("reebzeta.serialize")
    novikov = importlib.import_module("reebzeta.novikov")
    data = Path(__file__).resolve().parent.parent / "demos" / "data" / "orbits_mixed.json"
    originals = (cli.main, serialize.load_json, novikov.NovikovSeries.__dict__["__mul__"])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.job = 3
        with redirect_stdout(io.StringIO()):
            assert cli.main(["zeta-orbits", str(data), "--cutoff", "4"]) == 0
    finally:
        tracer.uninstall()
    assert originals == (cli.main, serialize.load_json,
                         novikov.NovikovSeries.__dict__["__mul__"])
    spans = tracer.spans()
    assert spans[0][0] == "cli.main" and spans[0][3] == -1
    names = {name for name, *_ in spans}
    assert {"serialize.load", "serialize.decode", "orbits.exp_form",
            "novikov.exp", "orbits.product_form", "novikov.mul"} <= names
    assert all(job == 3 for *_, job in spans)
    assert all(p < i for i, (*_, p, _) in enumerate(spans))
    assert tracer.counts["serialize.in_bytes"] == data.stat().st_size
