"""Fault injection: a one-line fault in a zeta or barcode kernel is caught
by the CLI's route comparison or by the golden stdout.

The exp route evaluates its recurrence through ``novikov._kronecker``,
the packed kernel under every large series product, so a fault there
can reach the product route too.  The two routes stay independent checks
only if such a fault still shows.  Each case below changes one line of a
library function, applies the changed function as a monkeypatch for one
test, and runs one golden case through the CLI; tests/test_golden.py
runs the same cases unfaulted.

The check that catches a fault in the exp or product route, or in a
kernel they share, is their comparison under ``--form both``: exit 3.
The ECH, barcode and circle-invariant routes have no partner at run
time, so their faults are caught by the golden stdout.  A wrong pivot
quotient in ``persistence._reduce`` leaves the pivot row in the column;
the guard after each subtraction raises InternalError, and the CLI
exits 3.  A file decoder's direct pass that refuses a valid file leaves
its record loop with no fault to word, which raises InternalError: exit
3 as well.
"""

import inspect
import textwrap

import pytest

from reebzeta import cli, domains, novikov, orbits, persistence, serialize
from test_golden import CASES, DATA, GOLDEN

COMPARISON, GOLDEN_DIFF = "the --form both comparison", "the golden stdout"
GUARD, DECODER = "the reduction guard", "the decoder's record loop"

# (fault, module or class, function, line as written, the line with the fault,
# golden case, check that catches, exp and product routes of the case's
# orbit set whose result changes)
FAULTS = [
    # the mask keeps no digit of the top slot, which then reads as 0
    ("packed product drops its top slot", novikov, "_kronecker",
     "& ((1 << (shift * size)) - 1)",
     "& ((1 << (shift * (size - 1))) - 1)",
     "zeta-orbits-fine", COMPARISON, {"exp", "product"}),
    # the fine grid's products all pack; this case's still reach the loop
    ("pair loop off by one at the bound", novikov, "_conv",
     "if n > bound:", "if n >= bound:",
     "zeta-orbits-coincident", COMPARISON, {"product"}),
    ("exp leaf drops its last term", novikov, "_exp_online",
     "reversed(g[lo:n])", "reversed(g[lo + 1:n])",
     "zeta-orbits-fine", COMPARISON, {"exp"}),
    ("middle product added one key off", novikov, "_exp_online",
     "acc[mid:hi] = map(add, acc[mid:hi], slots)",
     "acc[mid - 1:hi - 1] = map(add, acc[mid - 1:hi - 1], slots)",
     "zeta-orbits-fine", COMPARISON, {"exp"}),
    ("inverse recurrence skips the last term of r", novikov.NovikovSeries,
     "inverse", "for j, rj in r:", "for j, rj in r[:-1]:",
     "zeta-orbits-fine", COMPARISON, {"product"}),
    ("exp input parity sign flipped", orbits, "_exp_input",
     "(-a if eps else a)", "(a if eps else -a)",
     "zeta-orbits-fine", COMPARISON, {"exp"}),
    ("exp input parity sign flipped, mixed orbits", orbits, "_exp_input",
     "(-a if eps else a)", "(a if eps else -a)",
     "zeta-orbits-both", COMPARISON, {"exp"}),
    ("product factor sign flipped", orbits, "zeta_product_form",
     "-1 if (o.eps1 + o.eps2) % 2 else 1",
     "1 if (o.eps1 + o.eps2) % 2 else -1",
     "zeta-orbits-fine", COMPARISON, {"product"}),
    ("product factor power flipped", orbits, "zeta_product_form",
     "1 if o.eps2 else -1", "-1 if o.eps2 else 1",
     "zeta-orbits-fine", COMPARISON, {"product"}),
    # every orbit of the case's Morse data elliptic: its saddle factor
    # (1 - t^(3/2)) is inverted, so the zeta-s1 bytes change
    ("saddles made elliptic", domains, "s1_orbit_set",
     "p.index % 2, p.index % 2", "0, 0",
     "zeta-s1", GOLDEN_DIFF, set()),
    ("ECH grading from the even-cover parity", orbits, "ech_generators",
     "grading ^ o.eps1", "grading ^ o.eps2",
     "zeta-orbits-ech", GOLDEN_DIFF, set()),
    ("barcode skips its first column", persistence, "barcode_decompose",
     "for i in filter(columns.__contains__, order):",
     "for i in list(filter(columns.__contains__, order))[1:]:",
     "barcode", GOLDEN_DIFF, set()),
    # The case's complex reduces one column by another with the quotient
    # 1/2, so the inverted quotient 2 leaves the pivot row.
    ("wrong pivot quotient", persistence, "_reduce",
     "factor = _quotient(col[low], pivot[low])",
     "factor = _quotient(pivot[low], col[low])",
     "barcode-spelled", GUARD, set()),
    # complex_pair.json has two odd generators
    ("complex direct pass refuses odd generators", serialize,
     "_complex_direct", "{*eps} <= {0, 1}", "{*eps} <= {0}",
     "barcode", DECODER, set()),
]


def inject(monkeypatch, owner, name, line, fault):
    """Replace owner.<name>, a module function or a class method, by a
    copy with ``line`` changed to ``fault``.  The copy runs in a copy of
    the module namespace, so its own recursive calls reach the faulty
    version and its other calls the real functions, while every caller
    reaches it through the patch."""
    source = textwrap.dedent(inspect.getsource(getattr(owner, name)))
    assert source.count(line) == 1, \
        f"{owner.__name__}.{name} no longer has {line!r}"
    module = inspect.getmodule(owner)
    namespace = dict(vars(module))
    exec(compile(source.replace(line, fault), module.__file__, "exec"),
         namespace)
    monkeypatch.setattr(owner, name, namespace[name])


def argv_of(case, tmp_path):
    argv = dict(CASES)[case]
    return [arg.format(data=DATA, golden=GOLDEN, tmp=tmp_path) for arg in argv]


def routes(argv):
    """The exp and product zetas of the case's orbit set, or none when
    the case reads no orbit set."""
    if argv[0] != "zeta-orbits":
        return {}
    orbit_set = serialize.orbit_set_from_obj(serialize.load_json(argv[1]))
    cutoff = argv[argv.index("--cutoff") + 1]
    return {"exp": orbits.zeta_exp_form(orbit_set, cutoff),
            "product": orbits.zeta_product_form(orbit_set, cutoff)}


@pytest.mark.parametrize("fault", FAULTS, ids=[f[0] for f in FAULTS])
def test_each_fault_is_caught(monkeypatch, capsys, tmp_path, fault):
    name, owner, function, line, faulty, case, check, changed = fault
    argv = argv_of(case, tmp_path)
    clean = routes(argv)
    inject(monkeypatch, owner, function, line, faulty)
    faulted = routes(argv)
    assert {r for r in clean if faulted[r] != clean[r]} == changed
    code = cli.main(argv)
    out, err = capsys.readouterr()
    if check == COMPARISON:
        assert code == 3, f"{name}: exit {code}, missed by {check}"
        assert err.startswith(
            "reebzeta: error: InternalError: exp and product forms "
            "disagree at t^")
    elif check == GUARD:
        assert code == 3, f"{name}: exit {code}, missed by {check}"
        assert err.startswith("reebzeta: error: InternalError: column "
                              "reduction left pivot row")
    elif check == DECODER:
        assert code == 3, f"{name}: exit {code}, missed by {check}"
        assert err.startswith("reebzeta: error: InternalError: the direct "
                              "pass refused a valid")
    else:
        assert code == 0
        assert out != (GOLDEN / f"{case}.stdout").read_text(), \
            f"{name}: missed by {check}"
