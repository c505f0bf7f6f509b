"""Golden CLI output: sha256 digests of stdout and stderr, and the exit code.

Each reference command runs in-process through `cli.main`.  A change to the
bytes any of them prints, or to its exit code, fails here; a deliberate
output change must update DIGESTS and say why.  Stored inputs come from
`gen-form` and `decompose` run into a temporary directory, so the commands
that read them depend only on the pinned seeds.
"""

import hashlib

import pytest

from normsum import cli
from normsum import energy as en
from normsum import harness as hn

# name -> argv; "{form}" and "{decomp}" stand for the stored inputs
CASES = {
    "gen-form": ["gen-form", "--p", "7", "--n", "2", "--k", "3", "--seed", "5"],
    "decompose": ["decompose", "--form", "{form}", "--seed", "0"],
    "decompose-unseeded": ["decompose", "--form", "{form}"],
    # no X_a^3 monomial: decompose changes variables by a full matrix
    "gen-form-general": ["gen-form", "--p", "3", "--n", "3", "--k", "3", "--seed", "7"],
    # 19^4 = 130,321 points, past the exhaustive cap: verified over seeded runs
    "gen-form-sampled": ["gen-form", "--p", "19", "--n", "4", "--k", "5", "--seed", "3"],
    "decompose-general": ["decompose", "--form", "{form_general}", "--seed", "0"],
    # 1,179 monomials in six variables, k = 8
    "gen-form-wide": ["gen-form", "--p", "13", "--n", "6", "--k", "8", "--seed", "1"],
    "decompose-wide": ["decompose", "--form", "{form_wide}", "--seed", "0"],
    # fields of degree 4 to 6: the generic m >= 4 product, the Laplace (m = 4)
    # and mat_det (m >= 5) norms, and the distinct-degree split past degree 3
    "charsum-m4": ["charsum", "--p", "5", "--n", "4", "--k", "7", "--seed", "1"],
    "weil-check-m5": ["weil-check", "--p", "3", "--k", "5", "--r", "1"],
    "moment-m6": ["moment", "--p", "3", "--k", "6", "--r", "3"],
    "gen-form-m5": ["gen-form", "--p", "3", "--n", "5", "--k", "9", "--seed", "1"],
    "decompose-m5": ["decompose", "--form", "{form_m5}", "--seed", "0"],
    "charsum-csv": ["charsum", "--p-range", "3..13", "--n", "2", "--k", "2", "--seed", "1"],
    "charsum-json": ["charsum", "--p-range", "3..13", "--n", "2", "--k", "2", "--seed", "1",
                     "--format", "json"],
    "charsum-form": ["charsum", "--form", "{form}", "--seed", "0"],
    "charsum-decomp": ["charsum", "--decomp", "{decomp}", "--seed", "0", "--kappa", "0.2"],
    "energy": ["energy", "--p-range", "3..31", "--n", "2", "--seed", "1"],
    "lattice": ["lattice", "--p-range", "3..7", "--n", "1", "--seed", "1", "--format", "json"],
    "lattice-n2": ["lattice", "--p-range", "3..50", "--n", "2", "--seed", "1"],
    "lattice-refused": ["lattice", "--p-range", "3..999983", "--n", "2", "--seed", "1"],
    "weil-check": ["weil-check", "--p-range", "3..7", "--k", "2", "--r", "1"],
    "weil-check-r2": ["weil-check", "--p-range", "3..13", "--k", "2", "--r", "2"],
    "moment": ["moment", "--p-range", "3..13", "--k", "2", "--r", "2"],
    "moment-skips": ["moment", "--p-range", "3..13", "--k", "3", "--r", "4"],
    "moment-skip-line": ["moment", "--p", "101", "--k", "2", "--r", "3"],
    "moment-over-cap": ["moment", "--p", "999983", "--k", "1", "--r", "1"],
    "moment-t1": ["moment", "--p-range", "1400..1500", "--k", "1", "--r", "6"],
    "moment-field-skip": ["moment", "--p-range", "997..1009", "--k", "2", "--r", "100"],
    "bound-table-skip-p2": ["bound-table", "--p-range", "2..13", "--n", "1", "--k", "1",
                            "--kappa", "0.1", "--seed", "1"],
    "bound-table-json": ["bound-table", "--p-range", "3..7", "--n", "2", "--k", "3",
                         "--kappa", "0.1", "--seed", "1", "--format", "json"],
    "bound-table-n3": ["bound-table", "--p", "101", "--n", "3", "--k", "3", "--kappa", "0.25",
                       "--seed", "1"],
    "energy-scan": ["energy-scan", "--p-range", "3..50", "--n", "2", "--seed", "2"],
    "energy-scan-n3": ["energy-scan", "--p-range", "3..13", "--n", "3", "--seed", "3"],
    "identity-suite": ["identity-suite", "--p-range", "3..5", "--seed", "5"],
    "identity-suite-refused": ["identity-suite", "--p-range", "3..997", "--seed", "5"],
    "usage-missing-seed": ["charsum", "--p-range", "3..7"],
    "usage-charsum-shape": ["charsum", "--p-range", "3..7", "--n", "2", "--k", "1", "--seed", "1"],
    "usage-bound-table-shape": ["bound-table", "--p", "5", "--n", "2", "--k", "1", "--seed", "1"],
}

# name -> (sha256 of stdout, sha256 of stderr, exit code)
DIGESTS = {
    # kappa = 0.1 is below n = 2, k = 3's threshold 1/2: every delta is
    # negative, and r_opt and r_brute are blank
    "bound-table-json": (
        "55b8a7da5c834ea868a6c73ae22153ba7c2056bf32c6c5621e1712878fc73d30",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        0,
    ),
    # r_opt = r_brute = 6, the r of the least rhs
    "bound-table-n3": (
        "9c1e6b32d410d2caf5152089f749fd52f22fc567aadb0acf2ebaa20e5268c444",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        0,
    ),
    # delta is the exact saving from p_exponent; r_opt = r_brute = 5
    "bound-table-skip-p2": (
        "784ed71e845a4931bcb0467a3902d0ccf2ec571382fd31aed1d80b87273d2aa5",
        "7be082ec74de247512abf056a0e46557bc38620672069323dd3fe8d1c6713093",
        0,
    ),
    "charsum-csv": (
        "b2040c7cedc382be112dd6cbc778b1e8ecf49f94ddd66a7ee8a479130e805695",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        0,
    ),
    "charsum-decomp": (
        "a3c86646a871a4d675f0133a5ee4fd779d03377f6303ed7158a479ed6b83c6b1",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        0,
    ),
    "charsum-form": (
        "a902f9cc66d98a634a1016f389b9b7c4a2980ee78d3c970d88985ffc78bec537",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        0,
    ),
    "charsum-json": (
        "d030e31d81c43c87cfd9d6ecc2a689e5ada8ffa7664eb5c6f132fc4ce3fd5ff8",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        0,
    ),
    # partition (4, 1, 1, 1), F_{5^4}
    "charsum-m4": (
        "185926ae7f4d9f788ffd973bd514e0150a2f970e3596fc2837904fa86dc3b248",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        0,
    ),
    "decompose": (
        "ded4939689c9092dcca4f66b22fb9e0a2c8bd9c5855622c15a44b33cdd6620d1",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        0,
    ),
    # decompose takes no seed, and prints the same bytes without one
    "decompose-unseeded": (
        "ded4939689c9092dcca4f66b22fb9e0a2c8bd9c5855622c15a44b33cdd6620d1",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        0,
    ),
    # F(Mx) with M from extend_to_basis of the first point where F is nonzero;
    # pinned before compose_form took its products over F_{p^1}
    "decompose-general": (
        "2eea88bd62b1de9b85ff52c9c386c10cea1a4b03102af4e6d3d3d17190c99d11",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        0,
    ),
    # pinned while decompose still tried every tuple of root candidates
    "decompose-wide": (
        "87ca9c9a602b8a96da4ca85d604c31bb8560232738884bece2cc6f33aed20fe9",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        0,
    ),
    # splitting field F_{3^5}
    "decompose-m5": (
        "b4ec43b623d4253779dc2d5ce0d94037f0862d1e4af73ff09d12a8551cf34e12",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        0,
    ),
    "energy": (
        "ff5592d2de2a80d38bd2033e4bb11897ef8cc41e1ceb5e4467a64a62ce8eb8c1",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        0,
    ),
    "energy-scan": (
        "e84ca4faf97d590690e41e208c8cc875a0767ef2b0e993fe84b2d6409968f8bb",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        0,
    ),
    # every partition of 3, so one, two and three fields per prime
    "energy-scan-n3": (
        "df7248c531ebccde770c709dda3ffa721c9c5a52c34bca1c66a9d2650847bf11",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        0,
    ),
    "gen-form": (
        "8b8ec9255b71c71fc7ef1560209de6f21d4ca2eedb0d9513deae8524798f1361",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        0,
    ),
    "gen-form-general": (
        "d0d6533760b7d6f96fab992cf40af058a685d3a5d086c00bcacfdf42452b1cd2",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        0,
    ),
    "gen-form-wide": (
        "5f5c42cb3ddc3e5428679bc6e5497f51db664d0eb527e5420b1f65f7efde8232",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        0,
    ),
    "gen-form-m5": (
        "d9f06c7a412a66b85136fd4977b690876b6317ce85f059a15830a0c2fa7b3db5",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        0,
    ),
    "gen-form-sampled": (
        "05a23f2386586846a5cda1a10b9c4e9378261ee4b38878771c293eb2b7dd78a2",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        0,
    ),
    "identity-suite": (
        "de2692d8d704883abf06c57bdc07708d5d1dec58471764ab7660e514bc0210f9",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        0,
    ),
    # refused at p=787 by the command cap, before any prime's checks
    "identity-suite-refused": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "48ed465e71406e2cabc1a97190770dcf18170c55e2788358ac9c2294b79892dc",
        2,
    ),
    "lattice": (
        "5c29a108fb05f92ba74d435bdc2c224011358705cbd513ab8066d64fd55d1d89",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        0,
    ),
    # exact Fraction minima products and their ratios, at values up to 47^2
    "lattice-n2": (
        "83f1ca5dff1e916fe91d1e2ac1ef4d598a241a3ea6bfcfa82af55554bdd00f0e",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        0,
    ),
    # refused at p=3079 by the command cap, before any lattice
    "lattice-refused": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "5cd33bb7beb65d4da29fb7023a2a6dec05594237833de56178cae8f430c5125a",
        2,
    ),
    "moment": (
        "ab57f5eaf690448cad2a7bc69d7ddd2aae97e647206f719a01c276432475de77",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        0,
    ),
    # the skip line "p=999983: moment enumeration over cap, skipped" and a bare
    # table: T = 999 over 999,983 z's is about 5 x 10^9 units
    "moment-over-cap": (
        "3c6dcd2bd93e2330f5894dfaee7286ba0ef20b3fcdda32ff6d705d0e304f806d",
        "7fd2ecd00b706d94b8ee5335a027b3b76d97cb0aaba072e1489f85d7cb2144ad",
        0,
    ),
    # 44,404 units, within the moment cap; the value 5,481,828 is what a
    # float sum over F_{101^2} gives
    "moment-skip-line": (
        "c98ea6ca933a6b86286ea42df665ebd6674bbf786f5a6e06b46c5a0841f82231",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        0,
    ),
    "moment-skips": (
        "6ec78f5fcbd05b1c9c84ad1cba097af4dc22147c84f81d7842bcdf1f04322a03",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        0,
    ),
    # 997's rows are those of `moment --p 997 --k 2 --r 100`; F_{1009^2} is past
    # the field cap, so 1009 is a skip line, not a refusal of the command
    "moment-field-skip": (
        "8c8205f06c62308b238d087f41f350559b72e84c3820486e27ad4a1a98e1f4fe",
        "95026b48b1dc1c2ccef7b1830c58493202866c01542f19639ed35ea617526cb3",
        0,
    ),
    # one shift per z (T = 1) at 17 primes, each weight row p - 1 entries
    # long; pinned from the dense per-z route before the sorted-index keys
    "moment-t1": (
        "69f6a6b7d8b607296f56037a3f54d352d98ee88f8ba90da402e743b248b860ae",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        0,
    ),
    "moment-m6": (
        "3da006e114c7535ff03c6476686e97bfb3ca4d223ee65c813230248606d121b5",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        0,
    ),
    "usage-bound-table-shape": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "ce3e22b9555f5d34fe0f9cc527d3db0aebb9bab4e343dea6e2eea983ab2d948b",
        2,
    ),
    # the bound-table message: a bad shape is refused before the walk by both
    "usage-charsum-shape": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "ce3e22b9555f5d34fe0f9cc527d3db0aebb9bab4e343dea6e2eea983ab2d948b",
        2,
    ),
    "usage-missing-seed": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "5e851de467e9b1fb9e613c5d8edcfd6bd5cf5d1c9106431e6dae6b9b2e529b92",
        2,
    ),
    "weil-check": (
        "996682c82a7ad718e89ad82b4058aed1b66aacefb6b8a2088b31122ef3eb8cae",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        0,
    ),
    # 81 factor lists per character, the most that share a translation
    # class; pinned before weil-check took one sum per class
    "weil-check-r2": (
        "99f3b3076c2fbd02f93a3cc26af35179258abcbfa61e2483ab1aa2807dde1c83",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        0,
    ),
    "weil-check-m5": (
        "f49020e6c4db45cc51cb38b6aa921f3f9496d8f26a230c75465903e75e2884e5",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        0,
    ),
    "identity-suite-failures": (
        "ecac45a8e4536b425cd0c1894018f017d155c5657f8dc2b7b24cb5feca7ea557",
        "47123fb0008951f0f3de53fd2e7b11811adf9a379afa4d4fdd83ae5f48af6d8f",
        1,
    ),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    paths = {"form": str(d / "form.json"), "decomp": str(d / "decomp.json"),
             "form_general": str(d / "form_general.json"), "form_wide": str(d / "form_wide.json"),
             "form_m5": str(d / "form_m5.json")}
    assert cli.main(CASES["gen-form"] + ["--out", paths["form"]]) == 0
    assert cli.main(CASES["gen-form-general"] + ["--out", paths["form_general"]]) == 0
    assert cli.main(CASES["gen-form-wide"] + ["--out", paths["form_wide"]]) == 0
    assert cli.main(CASES["gen-form-m5"] + ["--out", paths["form_m5"]]) == 0
    assert cli.main(["decompose", "--form", paths["form"], "--seed", "0",
                     "--out", paths["decomp"]]) == 0
    return paths


def _digest(argv, capsys):
    capsys.readouterr()
    code = cli.main(argv)
    captured = capsys.readouterr()
    return _sha(captured.out), _sha(captured.err), code


@pytest.mark.parametrize("name", sorted(CASES))
def test_reference_command_output_pinned(name, inputs, capsys):
    argv = [a.format(**inputs) for a in CASES[name]]
    assert _digest(argv, capsys) == DIGESTS[name]


def test_every_command_has_a_pinned_run_that_prints_a_row():
    # a pinned stdout that is neither empty nor a bare table holds an object
    # or at least one row of the command's own output
    for command, spec in hn.COMMANDS.items():
        empty = {_sha("")} | {_sha(hn.render(spec.columns or (), [], fmt))
                              for fmt in ("csv", "json")}
        assert any(
            argv[0] == command and DIGESTS[name][0] not in empty and DIGESTS[name][2] == 0
            for name, argv in CASES.items()
        ), command


def test_identity_failure_lines_pinned(monkeypatch, capsys):
    # an s1 check that reports inequality fails every s1_cauchy_schwarz row
    monkeypatch.setattr(en, "s1_identity_check", lambda D, bx, by: (1, 2, False))
    argv = ["identity-suite", "--p-range", "3..5", "--seed", "5"]
    assert _digest(argv, capsys) == DIGESTS["identity-suite-failures"]
