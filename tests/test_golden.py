"""The command line's output bytes on the corpus operators, pinned by SHA-256.

Each case runs one subcommand in process at the arguments of the README
and of the benchmark workloads, in both output formats, once to stdout and
once to an --out file, whose bytes must have the same digest.  A changed digest
is a changed output: declare it, then record the new digest with

    PYTHONPATH=src python -m tests.test_golden
"""

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from lacunary.cli import main
from lacunary.corpus import entries

CORPUS = [e.name for e in entries()]

# (case name, argv): {v1}, {v2}, {fib} and {seq} are corpus files written in
# the test's directory.
CASES = [
    ("check readme", ["check", "--operator", "{v2}", "--sequence", "{seq}", "--window", "0:100"]),
    ("check bench", ["check", "--operator", "{v2}", "--sequence", "{seq}", "--window", "0:200000"]),
    ("kernel readme", ["kernel", "--operator", "{v2}", "--window", "0:12"]),
    ("certify readme", ["certify", "--operator", "{v2}", "--k", "50", "--budget", "100"]),
    ("certify bench r2", ["certify", "--operator", "{v2}", "--k", "100", "--budget", "200"]),
    ("certify bench r1", ["certify", "--operator", "{v1}", "--k", "50", "--budget", "200"]),
    ("certify bench fibonacci", ["certify", "--operator", "{fib}", "--k", "1", "--budget", "200"]),
    ("split readme", ["split", "--operator", "{v2}", "--sequence", "{seq}", "--window", "0:1000"]),
    ("split bench", ["split", "--operator", "{v2}", "--sequence", "{seq}", "--window", "0:200000"]),
    ("build readme", ["build", "--operator", "{v2}", "--gap", "20", "--budget", "200"]),
    ("build bench r2", ["build", "--operator", "{v2}", "--gap", "4096", "--budget", "20000"]),
    ("build bench fibonacci", ["build", "--operator", "{fib}", "--gap", "20", "--budget", "200"]),
    ("corpus", ["corpus"]),
] + [(f"corpus {name}", ["corpus", name]) for name in CORPUS]
# `verify` reads the JSON output of these cases
VERIFIED = ["kernel readme", "certify readme", "split readme", "build readme"]
CASES += [
    (f"verify {name}", ["verify", "--operator", "{v2}", "--certificate", "{%s}" % name])
    for name in VERIFIED
]

# (exit code, SHA-256 of stdout) per case and format
DIGESTS = {
    ('build bench fibonacci', 'json'): (2, '207286dfaaa0184a848d88c75a92c8742048efaf7c6b63e14b2612293496b735'),
    ('build bench fibonacci', 'text'): (2, 'b3b9aa7463e26f21e1651309fb44d91e9aed3c925383db5cfa7b8dd0b5058318'),
    ('build bench r2', 'json'): (0, 'c624de07d2833db4e76687463bd3e4f1c4511016e6982d5da9eceadb6d353d61'),
    ('build bench r2', 'text'): (0, '1f97f3081d006dff081947123aeb5bfd260e9015cec00fe6d862d1282c15952a'),
    ('build readme', 'json'): (0, '50f4942b08167beda404ffd85cb5af81559613b58f453033268e881f41d52b15'),
    ('build readme', 'text'): (0, '44cbf9fbf35d123d9a49293a6abae9583c552737cf19c278982c689576b929ee'),
    ('certify bench fibonacci', 'json'): (2, 'a94727572b7cb9697e872f5cad0b39912b5d36efe3d463f414427d6f8764000d'),
    ('certify bench fibonacci', 'text'): (2, '8f8f9002d3ecbcdc6d27e7ce36f323711e704f52eb951a8a69afad9f8be08e70'),
    ('certify bench r1', 'json'): (0, 'fe5f64db30e8d3a8e27ddfea57f4f53eb4e62e40fd3bbf2f62ee796b39c9c617'),
    ('certify bench r1', 'text'): (0, '69f0b3528d615ad1c42a77b3fdfa3590e6a60375bb638e9448aecfd845ddaea7'),
    ('certify bench r2', 'json'): (0, 'ce5177941e77de1b4d254ce547b3cef37c3ce20412bc42fdadcdc36bd8298d1e'),
    ('certify bench r2', 'text'): (0, 'bea0b03309d737f3643c9fb8556f49f420251c961cb1b0d9dcdc9d3a93ad6065'),
    ('certify readme', 'json'): (0, 'd7675fb6278599e2359e95a662baae59f93c03b5f8d0383cb36937c7c94d5cfc'),
    ('certify readme', 'text'): (0, '1ae6157f1e232d557ba91db863d05a04dc3fec49b1dc0eb05042612baf5af7bd'),
    ('check bench', 'json'): (0, '48df9b75da0637fcd749814fff428603c4829e545e146385b0d32cece905b4bf'),
    ('check bench', 'text'): (0, 'b3bd5da951e862c4f22bc5e547bb0308097b71609e7fbe511708b2205eb098fe'),
    ('check readme', 'json'): (0, 'fe7f6cdf3f568524fb8627dbe6357e3e8bae9b301c42581551d3d75ae0bf3800'),
    ('check readme', 'text'): (0, '6677baec9e810a97119e2f7fd040c9711106ac0c2600e67cdc1b52b5ca18b376'),
    ('corpus', 'json'): (0, '9762d0943d150ca03056ffa389907fbe7e242b953b6c74de0d249ef89e6a76de'),
    ('corpus', 'text'): (0, '680f3842f7e248482780747d5d7ab8fd5c5b3d32ba214055814ebb9d3ee026b4'),
    ('corpus fibonacci', 'json'): (0, 'fe39b6dac4d188f40052ba402f8b770fe1181050d3a61d920dc6bb7f729644be'),
    ('corpus fibonacci', 'text'): (0, '67e5ee3cba34e5632f4e6ad80a3c76f59973b2acc6a4e87768ba2666701f749b'),
    ('corpus vanish_on_multiples_r1', 'json'): (0, 'b038a2b7c2edeac6f2ccf380565d44097ef1cfd86e433e896d28b8a692bbedd1'),
    ('corpus vanish_on_multiples_r1', 'text'): (0, '9a4d7c66b39b3a86373ac7cd9d6b9f842b5522e417f1e10819254d2cb0412f16'),
    ('corpus vanish_on_multiples_r2', 'json'): (0, '8119a4076177d2ccc9e8d2d8f4423e3cf03038db9604532c03feb4a5aa377334'),
    ('corpus vanish_on_multiples_r2', 'text'): (0, '458ccdc85a8a8b56eb0e0ccbada2c484617ce682cf4c6160435cd170005b1652'),
    ('corpus vanish_on_multiples_r3', 'json'): (0, 'eb960cb2d6ac5094cc1a8160ffc1d9c85e7ef950b7fdbc1f86c7882bb228d9cb'),
    ('corpus vanish_on_multiples_r3', 'text'): (0, 'b79cee88a2f107b89e5f60933ca29d7de9814d59f141cf820e88e1f1c5f5377d'),
    ('corpus zero_operator', 'json'): (0, '782f0fad9a3400463e87f35bfe68cedfd4a0cc17406a42b06e6af1557531cb07'),
    ('corpus zero_operator', 'text'): (0, 'ef7a24ceff9c813914da1d4210c253743686b10fe5a07c7a038ec08e942811b5'),
    ('kernel readme', 'json'): (0, 'b088119f99a91c2c358b8ef0291c0e14bab8a4957cf1524c76fa035a646d10b1'),
    ('kernel readme', 'text'): (0, '56654e0d1d38f4a29d12e125352d7540aefe5f14ef7660a71d908c714e946035'),
    ('split bench', 'json'): (0, '6fa7a146b764025f6df57926793e3e4f5dc861026c31d3a685906616313414bc'),
    ('split bench', 'text'): (0, '201f7df36fab7769bb3e30a95dce8b2c981ac2c1a25872a4d868ffc5e0dd6635'),
    ('split readme', 'json'): (0, 'd98dd783aec5c7b484fe06436bb02ae825ea2fa7e3ce6c9d5caa9a2c3628990f'),
    ('split readme', 'text'): (0, '11f95bd040ed97422036a1f9716630c47e55d1c021e4af95c9fa1e5b0f5caa0b'),
    ('verify build readme', 'json'): (0, 'cb852c2567676f6978f6074077bdff24a59a4118a0931460ed32277c717496dd'),
    ('verify build readme', 'text'): (0, 'ae95b8e1bbe3b79d84f407df6113097243389f682e4d45d2a951463d9ffaaf56'),
    ('verify certify readme', 'json'): (0, 'c0b2a6c41b00b6c488b93593553ca85afba6b6be710935425b78c510bc6dfc31'),
    ('verify certify readme', 'text'): (0, '5bb922636515fc840d49776f9fa9f302c48031c7ce66ab1fa94a3f14f5da32e9'),
    ('verify kernel readme', 'json'): (0, 'b28120cf5c5d027e2b73240a2ac0a76e11fd7c23ecf27d63ee961d28ead11f5c'),
    ('verify kernel readme', 'text'): (0, 'e98d1d50a410020222d0bbfeb25119b90b15673a73aa9df99a4a7aec4d195a23'),
    ('verify split readme', 'json'): (0, '0fa48ef06ec18ff2bb48712d8fa0821f4f723677de439526f589e611cc9a37a7'),
    ('verify split readme', 'text'): (0, '09af165e4c84fbcd9ac17fe776e4e3221ed8c9630a37f69779fb7fb986c4f4d1'),
}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert err.getvalue() == ""
    return code, out.getvalue()


def _files(tmp):
    """The corpus operator and sequence files, and the outputs `verify` reads."""
    def write(key, data):
        paths[key] = str(tmp / f"{key}.json")
        (tmp / f"{key}.json").write_text(json.dumps(data))

    paths = {}
    corpus = {
        key: json.loads(_run(["corpus", name])[1])
        for key, name in (("v1", "vanish_on_multiples_r1"), ("v2", "vanish_on_multiples_r2"),
                          ("fib", "fibonacci"))
    }
    for key, entry in corpus.items():
        write(key, entry["operator"])
    write("seq", corpus["v2"]["sequence"])
    cases = dict(CASES)
    for name in VERIFIED:
        paths[name] = str(tmp / f"{name.replace(' ', '_')}.json")
        _run([a.format(**paths) for a in cases[name]] + ["--out", paths[name]])
    return paths


def digests(tmp, to_file=False):
    """(exit code, SHA-256 of the output) per case and format; the output is
    stdout, or with to_file the file --out writes, while stdout stays empty."""
    paths = _files(tmp)
    out_file = tmp / "out"
    table = {}
    for name, argv in CASES:
        for fmt in ("json", "text"):
            argv_fmt = [a.format(**paths) for a in argv] + ["--format", fmt]
            if to_file:
                code, out = _run(argv_fmt + ["--out", str(out_file)])
                assert out == ""
                data = out_file.read_bytes()
            else:
                code, out = _run(argv_fmt)
                data = out.encode("utf-8")
            table[(name, fmt)] = (code, hashlib.sha256(data).hexdigest())
    return table


@pytest.fixture(scope="module")
def observed(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("golden")
    return digests(tmp), digests(tmp, to_file=True)


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("name", [name for name, _ in CASES])
def test_output_bytes_unchanged(observed, name, fmt):
    stdout, out_file = observed
    assert stdout[(name, fmt)] == DIGESTS[(name, fmt)]
    assert out_file[(name, fmt)] == DIGESTS[(name, fmt)]


if __name__ == "__main__":
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for key, value in sorted(digests(pathlib.Path(tmp)).items()):
            print(f"    {key!r}: {value!r},")
