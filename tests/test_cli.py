"""Property test of the command line over random argv, in one process.

`cli.main` builds its parser once per process and reuses it, so no call
may leave behind anything that changes a later one: an argv run again
after other calls, a usage error and --help among them, prints what it
printed the first time.  Every run exits 0, 1 or 2 without a traceback,
and exits 1 only with a failure line on stderr.  The same holds for stored
JSON inputs (`--form`, `--decomp`) mutated at random.
"""

import contextlib
import copy
import io
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normsum import cli
from normsum import harness as hn

SIZE = st.integers(2, 31)
# odd values, unknown flags, a flag without its value, a stray positional,
# a stored input that does not exist, and --help; at most two per argv
ODD = (
    ("--p", "0"), ("--p", "-3"), ("--p-range", "13..3"), ("--p-range", "x..7"),
    ("--p-range", "5.."), ("--p-range", "-2..5"), ("--n", "0"), ("--k", "-1"), ("--r", "0"),
    ("--seed", "-1"), ("--kappa", "-0.5"), ("--eps", "-1"), ("--format", "xml"),
    ("--form", "no-such-dir/form.json"), ("--decomp", "no-such-dir/decomp.json"),
    ("--frobnicate",), ("--n",), ("7",), ("--help",), ("-h",),
)
# every command and an unknown one, with small sizes: p <= 31 (b..a ranges
# among them), n <= 2, k <= 3, r <= 2
ARGV = st.builds(
    lambda command, place, sizes, odd: [
        command, *place, *itertools.chain.from_iterable(sizes.items()),
        *itertools.chain.from_iterable(odd),
    ],
    st.sampled_from([*hn.COMMANDS, "frobnicate"]),
    st.one_of(
        st.just(()),
        SIZE.map(lambda p: ("--p", str(p))),
        st.tuples(SIZE, SIZE).map(lambda ab: ("--p-range", f"{ab[0]}..{ab[1]}")),
    ),
    st.fixed_dictionaries(
        {"--seed": st.integers(0, 3).map(str)},
        optional={
            "--n": st.sampled_from(["1", "2"]),
            "--k": st.sampled_from(["1", "2", "3"]),
            "--r": st.sampled_from(["1", "2"]),
            "--kappa": st.sampled_from(["0", "0.1", "0.25"]),
            "--format": st.sampled_from(["csv", "json"]),
        },
    ),
    st.lists(st.sampled_from(ODD), max_size=2),
)
USAGE_ERRORS = (["charsum", "--p-range", "3..7"], ["weil-check", "--k", "two"])
FIRST_RUNS: dict = {}


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    result = code, out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (argv, result)
    assert "Traceback" not in result[2], (argv, result)
    if code == 1:
        assert any(
            line.startswith(("check failed:", "fail:")) for line in result[2].splitlines()
        ), (argv, result)
    return result


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(ARGV, ARGV)
def test_random_argv_exits_cleanly_and_reruns_the_same(argv, other):
    first = run(argv)
    # an argv drawn again in a later example is compared with its first run
    assert FIRST_RUNS.setdefault(tuple(argv), first) == first, argv
    for between in (other, *USAGE_ERRORS, ["--help"]):
        run(between)
    assert run(argv) == first, argv


# values a mutation writes: odd integers, a float, and every other JSON type
POOL = (0, 1, -1, 2, 7, 10**6, 2**70, 1.5, True, None, "x", [], {})
STORED_RUNS = (("decompose", "--form"), ("charsum", "--form"), ("charsum", "--decomp"))


def _places(node):
    """(container, key) for every value below node, the nested ones too."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in list(items):
        yield node, key
        if isinstance(child, (dict, list)):
            yield from _places(child)


def _mutate(doc, data) -> None:
    """One mutation in place: replace a value with one from POOL, delete a
    key, or add or drop a list entry; nothing when no value is left to mutate."""
    places = list(_places(doc))
    kind = data.draw(st.sampled_from(("replace", "delete", "add", "drop")))
    if kind in ("replace", "delete"):
        targets = [(n, k) for n, k in places if kind == "replace" or isinstance(n, dict)]
    else:
        targets = [(n[k], None) for n, k in places
                   if isinstance(n[k], list) and (kind == "add" or n[k])]
    if not targets:
        return
    node, key = data.draw(st.sampled_from(targets))
    if kind == "replace":
        node[key] = copy.deepcopy(data.draw(st.sampled_from(POOL)))
    elif kind == "delete":
        del node[key]
    elif kind == "drop":
        del node[data.draw(st.integers(0, len(node) - 1))]
    else:
        entry = data.draw(st.sampled_from([*node, *POOL]))
        node.insert(data.draw(st.integers(0, len(node))), copy.deepcopy(entry))


@pytest.fixture(scope="module")
def stored(tmp_path_factory):
    """gen-form's JSON (a form and its decomposition), and a file to write mutations to."""
    code, out, _ = run(["gen-form", "--p", "7", "--n", "2", "--k", "3", "--seed", "5"])
    assert code == 0
    return json.loads(out), tmp_path_factory.mktemp("stored") / "input.json"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_mutated_stored_inputs_exit_cleanly(stored, data):
    original, path = stored
    doc = copy.deepcopy(original)
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(doc, data)
    path.write_text(json.dumps(doc))
    for command, flag in STORED_RUNS:
        code, _, err = run([command, flag, str(path), "--seed", "1"])
        if code == 1:
            assert any(line.startswith("check failed:") for line in err.splitlines()), (doc, err)


class _BrokenPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_output_write_errors_are_usage_errors(tmp_path):
    # stdout and --out share one error path: an OSError from either write
    # prints one usage line and exits 2, with no traceback
    argv = ["gen-form", "--p", "7", "--n", "2", "--k", "3", "--seed", "5"]
    err = io.StringIO()
    with contextlib.redirect_stdout(_BrokenPipe()), contextlib.redirect_stderr(err):
        assert cli.main(argv) == 2
    assert err.getvalue() == "usage error: [Errno 32] Broken pipe\n"
    missing = tmp_path / "no-such-dir" / "form.json"
    code, out, err = run([*argv, "--out", str(missing)])
    assert (code, out) == (2, "")
    assert err == f"usage error: [Errno 2] No such file or directory: '{missing}'\n"
