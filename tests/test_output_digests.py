"""Byte-identity guard for the exact subcommands.

The sha256 of stdout of ``kron resonance`` and ``kron reduce-flow`` on the
README's halving, BO and product specs at depths 16, 64 and 128, and of
``kron classify`` on three finite specs whose terms mix generators, as the
dense column Hermite transform printed them (their ``depth`` line re-pinned
to the depth clamped to the vector's length), except ``resonance`` on the
halving and product specs, pinned as the adjacent relations
e_j - a_(j+1) e_(j+1) of each sequence print them, and on the BO spec, pinned
as the Hermite kernel of the first five columns followed by the shifts of
(E - 1)^3 (2E - 1) print it; ``kron classify`` at depth 16 on
the halving, product, BO and odd-denominator BO specs and on solenoid specs
with increment, odd-indexed-prime and periodic tails, and ``kron iso`` of the
BO spec against the product spec, as the closure classes printed them; and of ``kron reduce`` on three
vectors, ``kron bo``, ``kron solenoid coords`` and ``kron iso``, as the dense
row-finite matrix and ``json.dumps(indent=2)`` printed them.  ``kron bo`` on
the odd-denominator ``bo-odd`` spec is pinned as printed once its top-level
closure became the module's (2R's) closure.  ``kron resonance`` and
``kron reduce-flow`` on ``bo-odd`` at depths 16 and 64, where the common
denominator D of the sigmas is not the lcm of the beta row, and those two
plus ``kron classify`` on the BO spec with s = 0 (no beta part at all) and on
a finite spec whose last term is empty, are pinned as the Hermite transform
of the Fraction coordinate columns printed them.  ``kron solenoid member``,
``coords`` and ``times`` at depth 128 on the factorial, odd-indexed-prime
and periodic sequences, and ``member`` on one non-member, are pinned as the
Fraction relations printed them; ``kron solenoid times`` at depths 16 and 64
on the halving and periodic sequences, and ``kron bo`` at depth 128 on the BO
spec and at depths 16, 64 and 128 on ``bo-prefixed`` (a prefix whose
denominators 3 and 4 differ from the tail ratio's 6), are pinned as the
times and the sigmas printed from Fractions printed them.  Any change that alters one byte
of these outputs fails here and has to say why.  ``kron resonance`` and
``kron reduce-flow`` at depths 1, 16 and 64 on the factorial, odd-indexed-prime
and periodic solenoids and on ``product-chains`` (two ``qa`` chains and two
free components), and ``reduce-flow`` at depth 2 on ``product-chains``, where
the free components outnumber the free indices, are pinned as the adjacent
relations and the closed-form transform e_i - q e_end printed them.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from kronflow.cli import main
from kronflow.frequency import SigmaSequence

SPECS = {
    "halving": {"kind": "solenoid", "generator": "1", "a": {"prefix": [1, 2], "tail": {"constant": 2}}},
    "bo": {
        "kind": "bo",
        "beta": {"name": "beta", "kind": "opaque"},
        "s": {"prefix": ["1/3"], "tail": {"c": "1/2", "r": "1/2"}},
    },
    "bo-odd": {"kind": "bo", "s": {"prefix": ["1/2"], "tail": {"c": "1/2", "r": "1/3"}}},
    "bo-zero": {"kind": "bo", "s": {"prefix": [], "tail": {"c": "0", "r": "1/2"}}},
    "bo-prefixed": {"kind": "bo", "s": {"prefix": ["2/3", "5/4"], "tail": {"c": "3/2", "r": "1/6"}}},
    "product": {"kind": "product", "components": [{"free": "1"}, {"qa": {"prefix": [1], "tail": {"constant": 2}}}]},
    "mixed-a": {"kind": "finite", "terms": [{"1": "1", "sqrt2": "1"}]},
    "mixed-b": {"kind": "finite", "terms": [{"1": "1", "sqrt2": "1"}, {"1": "2", "sqrt2": "2"}, {"sqrt3": "1/2"}]},
    "mixed-c": {
        "kind": "finite",
        "terms": [{"1": "1/2", "sqrt2": "-1", "pi": "3"}, {"1": "1"}, {"sqrt2": "2", "pi": "-6"}, {"1": "1/3", "sqrt3": "1"}],
    },
    "factorial": {"kind": "solenoid", "generator": "1", "a": {"prefix": [1], "tail": "increment"}},
    "odd-primes": {"kind": "solenoid", "generator": "1", "a": {"prefix": [1], "tail": "odd_indexed_primes"}},
    "periodic": {"kind": "solenoid", "generator": "1", "a": {"prefix": [1], "tail": {"periodic": [2, 3]}}},
    "t3": {"kind": "finite", "terms": [{"1": "1"}, {"sqrt2": "1"}, {"sqrt3": "1"}]},
    "finite-empty": {"kind": "finite", "terms": [{"1": "1"}, {}]},
    "product-chains": {"kind": "product", "components": [
        {"free": "1"}, {"qa": {"prefix": [1], "tail": {"constant": 2}}},
        {"free": "1/2"}, {"qa": {"prefix": [1, 3], "tail": "increment"}}]},
    "factorial-sqrt2": {"kind": "solenoid", "generator": "sqrt2", "a": {"prefix": [1], "tail": "increment"}},
    "bo-float": {
        "kind": "bo",
        "generators": [{"name": "beta", "kind": "opaque", "value": "0.314159265358979323846264338327950288419716939"}],
        "beta": "beta",
        "s": {"prefix": ["1/3"], "tail": {"c": "1/2", "r": "1/2"}},
    },
}

DIGESTS = {
    ("resonance", "halving", 16): "2baa8215dd9259607af04d623f4398f85cbc13449dcc7414197cd766260cecf2",  # 679 bytes
    ("resonance", "halving", 64): "733d3a59e4616e37c7e3d67b02b24ef6a3351d284f32cad9b75e1516b7408b6c",  # 2743 bytes
    ("resonance", "halving", 128): "f279523dd4512321c9aeb279d3f723758b2b397e9a62e5a01d63a4386ecb5473",  # 5554 bytes
    ("resonance", "bo", 16): "2b7b9f4fd0f6dbef3342b92481c9d90906100c271a86ac0ac53683aa663cc6ca",  # 1212 bytes
    ("resonance", "bo", 64): "0f173dbd96ec6d66fbd55f86f765b5bd609ecd3d5a6fcc60a773bcba5fbac411",  # 5484 bytes
    ("resonance", "bo", 128): "392339c1718b3db38403b911fd62334123cbac9696cc08df96129f4eaf89a846",  # 11317 bytes
    ("resonance", "product", 16): "ec9756a73e2a9f797b710b82ad3dfe21c276719f7c80e61fc42138c7fc5fdcbb",  # 467 bytes
    ("resonance", "product", 64): "47bf49b790322fd55b291e57d1387b55886cc19b7832be6933b8f144fcc5ee10",  # 1795 bytes
    ("resonance", "product", 128): "90ba84dddc9dfe1bf6747a7f90ac897d995eed53aef4971f473331f6e0e40596",  # 3570 bytes
    ("reduce-flow", "halving", 16): "8a69be4b864bc1e998067ef12619c7c11ef86039f3b67e01e8a54972a3d5a770",  # 2244 bytes
    ("reduce-flow", "halving", 64): "8d6ffd90c075a62f0f422abd9f509208bc4f3abb5c114a68e7edf981c44e9557",  # 9256 bytes
    ("reduce-flow", "halving", 128): "bf860d2b50b77564ff617ad57df29484ff51dd3d1f74096033d5dd7677a7b377",  # 21137 bytes
    ("reduce-flow", "bo", 16): "cc3c7c49ad854fca6ec4f34f0df69618b92aa5cbd286023837d852798dadc294",  # 3682 bytes
    ("reduce-flow", "bo", 64): "0cf3936b9a06c089a2f2bb4f06cb228de7162c5c7102b2f1e3779795a06f68a4",  # 19077 bytes
    ("reduce-flow", "bo", 128): "4a6c6fd90314b515f206e93b1e752b796ee82d0a75d3b3599148e3504d179c6f",  # 51118 bytes
    ("reduce-flow", "product", 16): "061fcac27f94d120f38e142e9aeaa145510c49c66165270b33be97ec56a27bfb",  # 1791 bytes
    ("reduce-flow", "product", 64): "d6a95ccdd8069d89dbbecb310436a7e1b08a9fa1e25f8876457baf038bc2a4a2",  # 6090 bytes
    ("reduce-flow", "product", 128): "86fa1740995925464d020943939885abed63768c238e0952c7c5dc9cf3dfbde6",  # 11890 bytes
    ("classify", "mixed-a", None): "febf1ddfc8636886fc55ed0598d36a960a11f71a7174df4745d4d32723b870f7",  # 395 bytes
    ("classify", "mixed-b", None): "40e1d828378ec8cd791afeae7d8909ef52d633984454829e4db7b21b1a538c38",  # 810 bytes
    ("classify", "mixed-c", None): "c2f24e9311792bcb466ef9a238281c3c8f349e76b12b9c2c4bff995e9bc9ea13",  # 1225 bytes
    ("classify", "halving", 16): "61b3a36016b358d83056904251d2285a0bf6122e1a20090d75167006ef2a566b",  # 762 bytes
    ("classify", "product", 16): "dd9e84d84b34d15c1e83ca9023a453d34efd78f0c0ef83acba7213f909d968fe",  # 1053 bytes
    ("classify", "bo", 16): "85e74a4db9414eea99a405723e98fba57c560370d0a96b707f0fd879e82a6481",  # 1277 bytes
    ("classify", "bo-odd", 16): "639eeb15c91c4694e587b02f79f025c2ad6bf63868e0d2104222567899568320",  # 1277 bytes
    ("classify", "factorial", 16): "5cbbd95222d9e11d1551764f2b5aff54f85a4da99f170781bcc866ca2304c629",  # 536 bytes
    ("classify", "odd-primes", 16): "8eb5d591568ab8a6b5e8bc938be776877baebe11cc576829494cff598cc0d4eb",  # 710 bytes
    ("classify", "periodic", 16): "ed40d937819e1cb4cb8b02cbb1c0f44211d1180c5b053ee7e047cf226f53ea20",  # 800 bytes
    ("resonance", "bo-odd", 16): "59e55e0b6eb28f900b47306a8a59d90642634ef68af63a4583a51cfb551feb29",  # 1236 bytes
    ("resonance", "bo-odd", 64): "cce785edf26098294f68456a7eb17c52cc73865de2c3a408b70b7bbc3d162b0d",  # 5604 bytes
    ("reduce-flow", "bo-odd", 16): "9c6205ec7f864a2aa40a99d17fa8ee1b513de36dee4547ed8bb99daf730b72c3",  # 3823 bytes
    ("reduce-flow", "bo-odd", 64): "59f9f4c2dd3ebb8083035606343bd1c5f55a616797372faa100b4016382335db",  # 22314 bytes
    ("resonance", "bo-zero", 5): "c132393bc0b03d9a53bab1dee24c425955950a9c7099cdc977cdf635090c97f7",  # 258 bytes
    ("reduce-flow", "bo-zero", 5): "6b26b382e9046bcb59875dc13dbd1823544cc0216f5a75b3915c0af4a7025a43",  # 973 bytes
    ("classify", "bo-zero", 5): "3d30c0616aa30febae1008451531203824126e2eec0f4e1a4d9de0b807bbb1f9",  # 395 bytes
    ("resonance", "finite-empty", None): "4b0154f6fa3ef0ce292834b349a80e7c171f1d4e17e65921d92a59f8e0fd12aa",  # 75 bytes
    ("reduce-flow", "finite-empty", None): "2abf941381a9e9cc6cbbb8a98c2270d76fc8c803465ad30f0bdb7ad45f3f66cd",  # 449 bytes
    ("classify", "finite-empty", None): "8fadd42b7126a68b4a471dbbbdbb124a39df1867b7b610cd9d048c04d0131c66",  # 395 bytes
    ("resonance", "factorial", 1): "48430b9d35d56920249894e47f4ca7b03e4470776f4dfa11e883e16dc8be1c6b",  # 47 bytes
    ("resonance", "factorial", 16): "bdd7c8aab41b4e2569181d67e7ce12090f5cd18fa946ea84cc74ae5cc50cb47c",  # 686 bytes
    ("resonance", "factorial", 64): "eaf88427d5bca52d52fff535c23ebcb03295d9a5578b3fc4e61e5059435bdfe5",  # 2798 bytes
    ("reduce-flow", "factorial", 1): "bb86092415293f95d696522d0f2a7d97c3d381782d2400f28f049f885ee448fb",  # 364 bytes
    ("reduce-flow", "factorial", 16): "4459244b1102469c491a3a844653e349ae8b8acb98ca423e36d40562dd31307f",  # 2425 bytes
    ("reduce-flow", "factorial", 64): "fe87f4a7b284fea8ed42b99a1f5cdbfb1e9de23aea9a9f5d1d9c52e59f620cf2",  # 14561 bytes
    ("resonance", "odd-primes", 1): "48430b9d35d56920249894e47f4ca7b03e4470776f4dfa11e883e16dc8be1c6b",  # 47 bytes
    ("resonance", "odd-primes", 16): "140385882429313481d6d15792123ba11d01dfb163817b15c484235d234a5703",  # 694 bytes
    ("resonance", "odd-primes", 64): "0f8e6e8ced62af9ddcd7329b861b18c97d0df0cf21e93aed776215288b3acaea",  # 2854 bytes
    ("reduce-flow", "odd-primes", 1): "bb86092415293f95d696522d0f2a7d97c3d381782d2400f28f049f885ee448fb",  # 364 bytes
    ("reduce-flow", "odd-primes", 16): "5f5072907698487023a2a7283c174c8455fcc3b52dbc757f3b9dc42efce79410",  # 2614 bytes
    ("reduce-flow", "odd-primes", 64): "4d9f5117825d774cd5ea327bf5d95aeaacbc3520b648ad0a0cdfe5df2c05067c",  # 18559 bytes
    ("resonance", "periodic", 1): "48430b9d35d56920249894e47f4ca7b03e4470776f4dfa11e883e16dc8be1c6b",  # 47 bytes
    ("resonance", "periodic", 16): "5cf6bca028526c2336f4b34c0d019eaf3f55b02855d38190626e628e2283cb7b",  # 679 bytes
    ("resonance", "periodic", 64): "d6c378aacdab3dac3993a5e8bb41bb4ba063c9b6bb0bb2649ea4b79422d5c7a3",  # 2743 bytes
    ("reduce-flow", "periodic", 1): "bb86092415293f95d696522d0f2a7d97c3d381782d2400f28f049f885ee448fb",  # 364 bytes
    ("reduce-flow", "periodic", 16): "8d6cadeeaf8a21eb56ae0ccc67e756aae7220146487fbdae966c92da9e12736e",  # 2263 bytes
    ("reduce-flow", "periodic", 64): "dd677e42c227a5fbaf06fa843a6ce435065864b0ae25543fa92b5952bfb5b0de",  # 9612 bytes
    ("resonance", "product-chains", 1): "48430b9d35d56920249894e47f4ca7b03e4470776f4dfa11e883e16dc8be1c6b",  # 47 bytes
    ("resonance", "product-chains", 16): "17f98eb655eefceb84eba69f90ea5fcf1ae788f86a70e6060e96b64352bb1950",  # 430 bytes
    ("resonance", "product-chains", 64): "a443cc35c8c818f8ec5c06c113736dc3ebc95bcc95cf7b16db6c273a1dbba3d2",  # 1773 bytes
    ("reduce-flow", "product-chains", 1): "9827b8ee570d282f2d9ef997052217f83f7e9ceee768bf2e2482c538b28f87bc",  # 365 bytes
    ("reduce-flow", "product-chains", 16): "65b18436c8d9457f9e72634d3492750555b8bfe8d1971d76b6d84f2dff5efb8a",  # 1882 bytes
    ("reduce-flow", "product-chains", 64): "429098c5c43a62d9c2366826e06cc38b259f4dd870a966c571719fffe17a720c",  # 6217 bytes
    ("reduce-flow", "product-chains", 2): "e7fd6c9c12dc044cb1e07124e23443f769a78916b9f305069e2a705d90cf67bd",  # 477 bytes
}


@pytest.mark.parametrize("command,family,depth", sorted(DIGESTS, key=str))
def test_stdout_digest(command, family, depth, tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SPECS[family]))
    argv = [command, str(spec)] + (["--depth", str(depth)] if depth else [])
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[command, family, depth]


# argv with spec names standing for their files -> digest of stdout
ARGV_DIGESTS = {
    ("reduce", "--nu", "4,6,10"): "85b20ea98329224fa3e88e202d8cd890dd536d339039dbe7274d2a4922a9edc0",  # 1052 bytes
    ("reduce", "--nu", "997,512,36,840,123,999,1000,7,655,288,401,73,950,16,777,333,610,91,248,860"):
        "830ecda3cb22843e2c4159b70f945161b896ab05a8b6dafbbce8698e85b1d87b",  # 30150 bytes
    ("reduce", "--nu=-84,0,30,-7,0,126,-1001,45"): "0627ad53dce9c27c9492c743c43808b043aa495a5d2b287b179056d085956858",  # 12123 bytes
    ("bo", "bo", "--depth", "16"): "11de96c34f40cdd8d88e7f007e5321f1f8a27c82ea87cc7e709f5532a07c33cc",  # 2682 bytes
    ("bo", "bo", "--depth", "64"): "7795225eca1ad55417a67a69b90cbce244efd8c8e3c7ba0c4b45e4c07852b516",  # 5408 bytes
    ("bo", "bo", "--depth", "128"): "6f5978145ff75eda7a466de4f3267962882d33ad324ce7e435b510fccfa71413",  # 12276 bytes
    ("bo", "bo-prefixed", "--depth", "16"): "681ee9050eb4bacfd81a658d9867c6bc9c7a3e514778ab495fab0252caf334d8",  # 3249 bytes
    ("bo", "bo-prefixed", "--depth", "64"): "25364bf36a16a0c887a3ef73158f347d220b206d614835f7aca8e974dcc6a025",  # 8430 bytes
    ("bo", "bo-prefixed", "--depth", "128"): "9839103a4e3cc4d6c77c65753a8a461bce4239ed717a36088a9f4b65f9b3c154",  # 23711 bytes
    ("bo", "bo-odd", "--depth", "3"): "2debe4cf87f6386d13d3aede117973c527eeb200a01e0a4b01f187c583a43a4c",  # 2299 bytes
    ("bo", "bo-odd", "--depth", "16"): "fb7ba0c4517db807745f6b2f4eb540d775c015aa76f4fd9ec51f2d8ac5704638",  # 2715 bytes
    ("solenoid", "coords", "--a", "1,2", "--theta", "1/4,5/8"):
        "75faa5204413673cbed8e8fb1e1944fa40ab91b8cc09f4e8229cac17db2a31d1",  # 44 bytes
    ("solenoid", "coords", "--a", "1,2,3,5", "--theta", "1/3,2/3,2/9,2/45,2/225"):
        "5824673c483fcc944cda17360aa29707b1eeea4e72b67f12f2d6a78dc8d1697c",  # 65 bytes
    ("iso", "halving", "product", "--depth", "16"): "ac191114f119fe22e8670809ae03c3eb37ad7f8d5d29624ff946fac19dcd2fde",  # 573 bytes
    ("iso", "bo", "product", "--depth", "16"): "7b5e58c48ae86a26009465a0af220159cd5e8abdb243ffa7f6f82a68e0e12983",  # 687 bytes
    ("iso", "mixed-b", "mixed-c"): "6ebc2e741646d2557482ec538f8fe6b71aff1f5f70f49516ec3bd2d2efd11eb4",  # 131 bytes
}


@pytest.mark.parametrize("argv", sorted(ARGV_DIGESTS))
def test_argv_stdout_digest(argv, tmp_path, capsys):
    paths = {}
    for arg in argv[1:]:
        if arg in SPECS:
            paths[arg] = tmp_path / f"{arg}.json"
            paths[arg].write_text(json.dumps(SPECS[arg]))
    assert main([argv[0]] + [str(paths.get(arg, arg)) for arg in argv[1:]]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == ARGV_DIGESTS[argv]


# -- kron solenoid at depth 128: tau = 5/7 and digits n_j = (j^2 + 1) mod a_j,
# with theta built by theta_j = (theta_{j-1} + n_j) / a_j; the non-member moves
# theta_N by 1/(2 a_N), which breaks the last relation.
SOLENOID_SEQUENCES = {
    "factorial": {"prefix": [1], "tail": "increment"},
    "odd_primes": {"prefix": [1], "tail": "odd_indexed_primes"},
    "periodic": {"prefix": [1], "tail": {"periodic": [2, 3]}},
    "halving": {"prefix": [1, 2], "tail": {"constant": 2}},
}


def _solenoid_argv(op: str, family: str, member: bool, depth: int = 128) -> list[str]:
    seq = SOLENOID_SEQUENCES[family]
    a = SigmaSequence.from_json(seq).terms(depth)
    tau = Fraction(5, 7)
    digits = [(j * j + 1) % a[j - 1] for j in range(2, depth + 1)]
    argv = ["solenoid", op, "--a", json.dumps(seq, separators=(",", ":"))]
    if op == "times":
        return argv + ["--tau", str(tau), "--digits", ",".join(map(str, digits))]
    theta = [tau]
    for j, n in enumerate(digits, start=2):
        theta.append((theta[-1] + n) / a[j - 1])
    if not member:
        theta[-1] = (theta[-1] + Fraction(1, 2 * a[-1])) % 1
    return argv + ["--theta", ",".join(map(str, theta))]


SOLENOID_DIGESTS = {
    ("coords", "factorial", True): "591b9c0ad7ff6dbaeb439393fb7ff2589f380e1511afd61a82af2c786e2ee1cb",  # 926 bytes
    ("coords", "odd_primes", True): "1e6d2844e850ec8d22c9861292dfc4194d8bbe24c808fcf0082338a929b3d5b8",  # 1142 bytes
    ("coords", "periodic", True): "1221078b8e07c5673cc77beea820ca056762f8e065bcbba57bf0e982801593f0",  # 926 bytes
    ("member", "factorial", True): "c8083c0e9cfccc98b2eb6f3c81d4cb339f729adbb13824e7d7feca0fa115b3b4",  # 73 bytes
    ("member", "odd_primes", False): "5eaf885c73d9dea7ea865579a93cd36a91f94b3b4335c197c87bb3277e651057",  # 67 bytes
    ("member", "odd_primes", True): "c8083c0e9cfccc98b2eb6f3c81d4cb339f729adbb13824e7d7feca0fa115b3b4",  # 73 bytes
    ("member", "periodic", True): "c8083c0e9cfccc98b2eb6f3c81d4cb339f729adbb13824e7d7feca0fa115b3b4",  # 73 bytes
    ("times", "factorial", True): "bff803544ea016ccfc606d698d14ad6522ed19a75a70d31dd0f45109021f06b5",  # 38983 bytes
    ("times", "odd_primes", True): "bf5f29e7cb4f8100a1262581f97a16b540e4ccea515470308e2a2b81ca5cf88e",  # 61761 bytes
    ("times", "periodic", True): "921f373ae43de2bf0c812bab5baef86df4cd4c24d37877ac9c23372fd6a45892",  # 12078 bytes
}


@pytest.mark.parametrize("op,family,member", sorted(SOLENOID_DIGESTS))
def test_solenoid_stdout_digest(op, family, member, capsys):
    assert main(_solenoid_argv(op, family, member)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SOLENOID_DIGESTS[op, family, member]


# -- kron solenoid times on the same points at shallower depths
SOLENOID_TIMES_DIGESTS = {
    ("halving", 16): "dd99326b5bc39622d52e1cad669b46de50ff5ce6dec0ee25de0c24cbb6d4b307",  # 479 bytes
    ("halving", 64): "16641444d570ba33a12ce627034771940818698f967e226b72dd860cdee0a81d",  # 3180 bytes
    ("periodic", 16): "6cd2e7bd203f2a34f155a4bbe79b295ab003f42cd4892f24bb99c6bc6d5216ac",  # 511 bytes
    ("periodic", 64): "1052bf77cb56a1e197cd92b1e1e87b96f884c5725ae09ea005a02e04e1350900",  # 3674 bytes
}


@pytest.mark.parametrize("family,depth", sorted(SOLENOID_TIMES_DIGESTS))
def test_solenoid_times_digest(family, depth, capsys):
    assert main(_solenoid_argv("times", family, True, depth)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SOLENOID_TIMES_DIGESTS[family, depth]


# -- kron simulate: the sha256 of the CSV file, on 201 samples from t0 = 3 with
# theta0_j = ((j^2 + 1) mod 1000) / 1000 turns
SIMULATE_DIGESTS = {
    ("t3", 3, "1e2"): "a316d503480460cfb9b12aa86c8b134ae6d058c6c2e4862e56c3b1bd9de16a23",  # 9953 bytes
    ("factorial-sqrt2", 8, "1e12"): "4426750115779ae30627d5355d7abc69172a17f9a022d5a8c2cecc494a174699",  # 25497 bytes
    ("bo-float", 16, "1e6"): "62a3579fa5fd27dd58fb616d31db8ac08245b199311e45b066f41a3a039ffe44",  # 47643 bytes
    ("halving", 64, "1e6"): "25299efaf9643238718523b3b066d15cdfaa96374d755192764d604a0fd62da9",  # 183743 bytes
}


@pytest.mark.parametrize("family,depth,t1", sorted(SIMULATE_DIGESTS))
def test_simulate_csv_digest(family, depth, t1, tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SPECS[family]))
    out = tmp_path / "traj.csv"
    theta0 = ",".join(f"{(j * j + 1) % 1000}/1000" for j in range(1, depth + 1))
    argv = ["simulate", str(spec), "--t0", "3", "--t1", t1, "--steps", "200", "--depth", str(depth),
            "--theta0", theta0, "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SIMULATE_DIGESTS[family, depth, t1]
