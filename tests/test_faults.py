"""Fault injection: the exp and product zeta routes catch each other's
kernel faults at run time.

The exp route evaluates its recurrence through ``novikov._conv`` and
``_conv_packed``, the kernels of every series product, so a fault there
can reach the product route too.  The two routes stay independent checks
only if such a fault still shows.  Each case below changes one line of a
kernel, applies the changed function as a monkeypatch for one test, and
runs the golden fine-grid case through the CLI under ``--form both``.

Two checks catch faults:
- the comparison of the two routes, exit 3;
- exp's int gate: a fault confined to exp's running sums makes some
  quotient inexact, and exp then finishes from that key by the key-by-key
  loop, which reads no running sum.  So the output stays right (exit 0,
  the golden bytes), and only the hand-off, and the time it costs, shows
  the fault.  ``TestExpKernel`` requires zeta inputs to run online to the
  end, and acceptance criterion 16 times it.
"""

import inspect
import textwrap
from pathlib import Path

import pytest

from reebzeta import cli, novikov, orbits, serialize

ROOT = Path(__file__).resolve().parent.parent
FINE = ROOT / "tests" / "golden" / "orbits_fine.json"
ARGV = ["zeta-orbits", str(FINE), "--cutoff", "2", "--form", "both"]
COMPARISON, HAND_OFF = "the --form both comparison", "exp's int gate"

# (fault, function, line as written, the line with the fault, routes whose
# result changes, whether exp's online pass hands off, check that catches)
FAULTS = [
    ("packed product drops its top slot", "_conv_packed",
     "for k in range(width):", "for k in range(width - 1):",
     {"product"}, True, COMPARISON),
    ("pair loop off by one at the bound", "_conv",
     "if n > bound:", "if n >= bound:", {"product"}, False, COMPARISON),
    ("exp leaf drops its last term", "_exp_online",
     "reversed(g[lo:n])", "reversed(g[lo + 1:n])", {"exp"}, True,
     COMPARISON),
    ("middle product added one key off", "_exp_online",
     "acc[lo + k] += c", "acc[lo + k - 1] += c", set(), True, HAND_OFF),
]


def inject(monkeypatch, name, line, fault):
    """Replace novikov.<name> by a copy with ``line`` changed to ``fault``.
    The copy runs in a copy of the module namespace, so its own recursive
    calls reach the faulty version and its other calls the real kernels,
    while every caller in the module reaches it through the patch."""
    source = textwrap.dedent(inspect.getsource(getattr(novikov, name)))
    assert source.count(line) == 1, f"novikov.{name} no longer has {line!r}"
    namespace = dict(vars(novikov))
    exec(compile(source.replace(line, fault), novikov.__file__, "exec"),
         namespace)
    monkeypatch.setattr(novikov, name, namespace[name])


def routes(monkeypatch):
    """Both zetas of the golden case, and the key where exp's online pass
    stopped (past the last key when it ran to the end)."""
    orbit_set = serialize.orbit_set_from_obj(serialize.load_json(str(FINE)))
    stops, online = [], novikov._exp_online

    def spy(*args):
        stops.append(online(*args))
        return stops[-1]

    with monkeypatch.context() as patch:
        patch.setattr(novikov, "_exp_online", spy)
        zetas = {"exp": orbits.zeta_exp_form(orbit_set, 2),
                 "product": orbits.zeta_product_form(orbit_set, 2)}
    return zetas, stops[-1]   # the outermost call returns last


def test_the_golden_case_runs_online_to_the_end(monkeypatch, capsys):
    _, stop = routes(monkeypatch)
    assert stop == 241
    assert cli.main(ARGV) == 0
    golden = ROOT / "tests" / "golden" / "zeta-orbits-fine.stdout"
    assert capsys.readouterr().out == golden.read_text()


@pytest.mark.parametrize("fault", FAULTS, ids=[f[0] for f in FAULTS])
def test_each_fault_is_caught(monkeypatch, capsys, fault):
    name, function, line, faulty, changed, hands_off, check = fault
    clean, _ = routes(monkeypatch)
    inject(monkeypatch, function, line, faulty)
    faulted, stop = routes(monkeypatch)
    assert {r for r in clean if faulted[r] != clean[r]} == changed
    assert (stop < 241) == hands_off
    code = cli.main(ARGV)
    out, err = capsys.readouterr()
    if check == COMPARISON:
        assert code == 3, f"{name}: exit {code}, missed by {check}"
        assert err.startswith(
            "reebzeta: error: exp and product forms disagree at t^")
    else:
        golden = ROOT / "tests" / "golden" / "zeta-orbits-fine.stdout"
        assert (code, out) == (0, golden.read_text()), \
            f"{name}: {check} did not restore the output"
