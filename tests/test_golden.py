"""Frozen golden outputs: sha256 digests of every exact CLI verb's stdout
and of the j_n expansions.

The digests pin behaviour bit for bit across refactors.  Regenerate them
only for a deliberate output change, and record which entries moved:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import io
from contextlib import redirect_stdout

import pytest

from heckediv import cli, forms as F, operators as O
from heckediv.cyclotomic import Cyclo

QEXP_FORMS = ("E4", "Delta", "j", "j_shifted", "jminus:1728", "jminus:0",
              "eta:2:1=24,2=-24")
# eta quotients of fractional order (grid 24) and of levels 3 and 6, at a
# precision where the unit part reaches well past its first terms
ETA_FORMS = ("eta:1:1=1", "eta:1:1=-1", "eta:3:1=12,3=-12", "eta:6:1=2,2=2,3=2,6=2")

CLI_CASES = {
    **{f"qexp {name}": ("qexp", "--form", name, "--prec", "12") for name in QEXP_FORMS},
    **{f"qexp {name} prec 60": ("qexp", "--form", name, "--prec", "60")
       for name in ETA_FORMS},
    "hecke-add normalized": ("hecke-add", "--form", "Delta", "--n", "2", "--prec", "10"),
    "hecke-add classical": ("hecke-add", "--form", "Delta", "--n", "2", "--prec", "10",
                            "--normalization", "classical"),
    "hecke-add E6 T3": ("hecke-add", "--form", "E6", "--n", "3", "--prec", "8"),
    "hecke-add level 2": ("hecke-add", "--form", "E4", "--n", "3", "--level", "2",
                          "--prec", "8"),
    "hecke-add level 2 p|N": ("hecke-add", "--form", "E4", "--n", "2", "--level", "2",
                              "--prec", "8", "--normalization", "classical"),
    "hecke-mult E4 T2": ("hecke-mult", "--form", "E4", "--n", "2", "--prec", "25"),
    "hecke-mult j-1728 T3": ("hecke-mult", "--form", "jminus:1728", "--n", "3",
                             "--prec", "12"),
    "hecke-mult eta level 2": ("hecke-mult", "--form", "eta:2:1=24,2=-24", "--n", "3",
                               "--level", "2", "--prec", "10"),
    "hecke-mult refusal": ("hecke-mult", "--form", "E4", "--n", "4", "--level", "2"),
    "algebra-mul N1": ("algebra-mul", "--N", "1", "--u", "T2", "--v", "T2"),
    "algebra-mul N6": ("algebra-mul", "--N", "6", "--u", "T5", "--v", "T(1,7)"),
    "divisor j-1728": ("divisor", "--form", "jminus:1728"),
    "divisor Delta level 3": ("divisor", "--form", "Delta", "--level", "3"),
    "divisor eta level 2": ("divisor", "--form", "eta:2:1=24,2=-24", "--level", "2"),
    "divisor jminus:8000 level 2": ("divisor", "--form", "jminus:8000", "--level", "2"),
    "hecke-div j-1728 T2": ("hecke-div", "--form", "jminus:1728", "--n", "2"),
    "hecke-div E4 T3": ("hecke-div", "--form", "E4", "--n", "3"),
    "hecke-div E10 T2": ("hecke-div", "--form", "E10", "--n", "2"),
    "hecke-div level 2": ("hecke-div", "--form", "E4", "--n", "3", "--level", "2"),
    "rohrlich s=1": ("rohrlich", "--m", "2", "--form", "E4"),
    "rohrlich s=1 j-1728": ("rohrlich", "--m", "3", "--form", "jminus:1728"),
    "verify algebra": ("verify", "--suite", "algebra"),
    "verify bko": ("verify", "--suite", "bko"),
    "verify divisor-hecke": ("verify", "--suite", "divisor-hecke"),
    "verify p-plication": ("verify", "--suite", "p-plication"),
}

GOLDEN_CLI = {
    'algebra-mul N1': 'df40e7534d0af3df90e466c79f2a1c1691868ef23933e9f9052e5b5108c87de9',
    'algebra-mul N6': '0fb1b1c78126ad02a45a8067bfebf70df1ca69776add8479a6215644a7e61f73',
    'divisor Delta level 3': '0133879989987662c45e61b11c4b0983c5422d1ec2c70f02c453dfda667f021c',
    'divisor eta level 2': 'fe4a539c2161951703d5f6eeb9765a2cf8f905c8e43abe59d954f1fd40dfb181',
    'divisor j-1728': '35c450c2ccf86af87f97a3456c0b0407d3deea8fa4413938f3bed4daa1ef36ce',
    'divisor jminus:8000 level 2': '6ef0b14289ce0f9846daba0a0f693b0a5e7c2da6a1cef53e4cd3aafb5243d42c',
    'hecke-add E6 T3': 'c464ccd5d75e4f73aa17fa9e53e57df184acc3aaf10c5174ef3592227b3d3f45',
    'hecke-add classical': 'cbffda86672cdc156ff20eb386e05311694944fdbd27116ecdaaa890cc3bcf66',
    'hecke-add level 2': '33e33f10b6fea135f3cb7152e188cf4bf0c570c151fac26bac5d21553a1b5b3b',
    'hecke-add level 2 p|N': '59e91497c1f542ceb41265db0419b25ab121c24a63d848f2a81269b37fd93f1e',
    'hecke-add normalized': 'ee21364b60e78c2e13104c954afc360fe2d27b81307dafdea152c26514c0a4d1',
    'hecke-div E10 T2': 'e8fcd4db29be04356a9b8586f9711ffe70d0c8eaa3bebc4497883c004d84a26a',
    'hecke-div E4 T3': '5c55dd363bbe2b0916b0f340d138060ea6f74412ce9914e087902e64af41cb54',
    'hecke-div j-1728 T2': '301dc9f058f9b5e4e5b7ccd82c612fc42bd783521491e42b56e061a28c9262d9',
    'hecke-div level 2': 'ca2357ad871f217c37f9fab1bd9eb9e47d30c2304f2ed3197961e3233759722b',
    'hecke-mult E4 T2': '103d536e959934df406f9c52377a8b2143a333647c9ec90119de98abead9b866',
    'hecke-mult eta level 2': '1aa8c53b710752ca8674bbb92479cd82393ee77addffaf828e47f37439ed23d8',
    'hecke-mult j-1728 T3': 'd3830c0bdd5bb2b6386b7c03075936948597292f64361b3a67a803a0f4d222a2',
    'hecke-mult refusal': 'ee4f606df2ee35f1a0e7143b99ef5048d27875260e1dba76ab8ccfb125e0c17c',
    'qexp Delta': 'eee7600b61741fa992c9ad443803dc54b76a4667ea7963082b8b044b98fe2073',
    'qexp E4': '1becea867d96e8aa0d7e5a3207d58d6bfa90f50ed7533dad8f3d8e41345732db',
    'qexp eta:1:1=-1 prec 60': '4f5385be802256e8cd9d9210f83eac03a7381ccde65ef69a0ba55e9cbf5d0c1f',
    'qexp eta:1:1=1 prec 60': 'bf7c45ea2977584d5c8e32fe62eebf383551bdd44cf4605510b64a880264fdf6',
    'qexp eta:2:1=24,2=-24': '0123a0d60a5531058776d041f662a34da9a460927351f4b3ec5dcfa5d1a45615',
    'qexp eta:3:1=12,3=-12 prec 60': 'bf662b41c7b1f3357c007ddf263fd2c618211aa4670bebf0ca53158ba9d06c90',
    'qexp eta:6:1=2,2=2,3=2,6=2 prec 60': '79e6f9d5b1c79fdc044402e18697373e53c703d4e26ee81fe255f5833f04b071',
    'qexp j': 'b6ac2f8bbde2f4ca331d11ad2b5f80b86e2f87f2556f9ce07286ef82619155cc',
    'qexp j_shifted': '29bac7702e937a8c6a98772c04b571c7c0261f10779c86b0ea440ac631005447',
    # jminus:<c> prints --prec coefficients like every other name, so
    # jminus:0 prints exactly what `j` prints
    'qexp jminus:0': 'b6ac2f8bbde2f4ca331d11ad2b5f80b86e2f87f2556f9ce07286ef82619155cc',
    'qexp jminus:1728': '8996485e3c73b0a82d0e3ca6937ea152ac19b1774330b5efa910851c17945519',
    'rohrlich s=1': '56c2e9326aa8462a0fbff97a5ea4eefc900df543adba050d358a454a39ffbda1',
    'rohrlich s=1 j-1728': '4c8013d939d40e3daf09bc83132d4596f3acd5e0a4230496e43bff26c44bb81e',
    'verify algebra': '7df889ecc77f61fd309ac1016c1f1275413650a580fba37ff9ae054a871da916',
    'verify bko': '79eccedd0ab7997c3d17e82f1ee380c8b5b0e1d67046f7841cb7671c0656bc35',
    'verify divisor-hecke': 'd37fe42dfdf55e1e2e2c4db15f4c8ba24e835d65263f087b95f30f48a6de65ca',
    'verify p-plication': '552787144122cc57b1eb1be70a4d39ecae59d2e36db82ec07be44cd95b19523d',
}

GOLDEN_JN = {
    1: '3b981d71503df50ffec7fa81c01ed1ee086ce731696524aaf0c4165fbf60b4da',
    2: 'dbd936fe2d9207ce36668d878d835031ef046b9e63bdd99c1c22af2deb475833',
    3: 'c2fd9210fa22d009dd536d1e9742baa681930d6f3fe5e7e394386a9d52cb9a46',
    4: 'c181496825cbeea73c907d47f3472c4c1edc0e9e7dc4833ab24b04576a396ff4',
    5: '9f20bcec1975d9f0f7e0a0531529d725657a2c4f4a03516e7e1bfd94e290d368',
    6: '08f7484711a3d6cd67183dab29959e7db99da3040ec7ec1fa21313a2357fb475',
    7: '9210209412505583b84c46317582c1bdd7ba41c0abb84570401beb941ad4234f',
    8: '210c2a4ccb7e4e987af60659010315068dd5b6815107164de2d6e2d18ed4bbf9',
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cli_digest(argv) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(list(argv))
    return _digest(f"exit {code}\n{buf.getvalue()}")


def jn_digest(n: int) -> str:
    # coefficient types are part of the pinned output, not only their values
    s = F.jn(n, 40)
    return _digest(repr((s.D, s.order, [(type(c).__name__, str(c)) for c in s.coeffs])))


@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_cli_golden(case):
    assert cli_digest(CLI_CASES[case]) == GOLDEN_CLI[case]


@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_cli_golden_without_cyclotomic_arithmetic(case, monkeypatch):
    # every exact verb computes in Q: no twisted translate (a twist by
    # zeta_2 = -1 makes no Cyclo), and no element of Q(zeta_d)
    def refuse(*args):
        raise AssertionError("cyclotomic arithmetic behind an exact verb")

    monkeypatch.setattr(O, "_slash_upper", refuse)
    monkeypatch.setattr(Cyclo, "__init__", refuse)
    assert cli_digest(CLI_CASES[case]) == GOLDEN_CLI[case]


@pytest.mark.parametrize("n", range(1, 9))
def test_jn_golden(n):
    assert jn_digest(n) == GOLDEN_JN[n]


if __name__ == "__main__":
    for case in sorted(CLI_CASES):
        print(f"    {case!r}: {cli_digest(CLI_CASES[case])!r},")
    print()
    for n in range(1, 9):
        print(f"    {n}: {jn_digest(n)!r},")
