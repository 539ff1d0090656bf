"""Seeded generators of malformed input for the package's input surfaces.

Each generator takes a random.Random and yields cases (surface, call,
args): deserialize and receive on random, bit-flipped, truncated,
extended and spliced messages on mini, toy and production; receive
against oracles.naive_receive on the same messages, and on the
production ones for the texts of its rejections; both sender paths
against oracles.naive_send, and that oracle against naive_receive, on
(S, z, u, v) drawn on the three profiles; profile_from_dict and
load_profile on mutated profile dicts and files; and cli.main on argv
drawn from a small grammar over its five commands. The property is that
each call returns a value or raises one of ALLOWED, never another
exception; the checks that wrap a call (a loaded dict reads back as
written, receive and the sender agree with their oracles, the oracles
agree with each other, a rejection's text holds no value derived from
the secret, main exits 0, 1 or 2 with no traceback) raise
AssertionError, which is outside ALLOWED.
tests/test_fuzz.py runs them on fixed seeds, tools/fuzz.py on fresh
ones. Stdlib only.
"""

from contextlib import redirect_stderr, redirect_stdout
import io
import json
import random
import re

from fourpoint.cli import main
from fourpoint.errors import FourPointError, ProtocolAbort, VerificationError
from fourpoint.prf import session_values
from fourpoint.protocol import (MESSAGE_LEN, MINI, PRODUCTION, TOY, _draw,
                                _generate, _kernel, _offsets, _recover,
                                _recovery_map, alice_generate, derive_session,
                                deserialize, dump_profile, load_profile,
                                profile_from_dict, profile_to_dict, receive,
                                serialize)

from oracles import naive_receive, naive_send

ALLOWED = (FourPointError, ValueError, OSError)
PROFILES = (MINI, TOY, PRODUCTION)

# values a JSON profile can carry in place of the right one
ODD_VALUES = (None, True, False, 0, 1, 2, 3, 4, -1, 1.5, float("nan"),
              float("inf"), "", "x", "257", " 257 ", "-257", "0x101",
              "1_000", "２５７", "é", [], [2], {},
              {"M": 257})


def honest(rng: random.Random, profile, S=None) -> tuple[bytes, bytes, int]:
    """(S, blob, v) of an honest message under a fresh nonce and the given
    secret, or a fresh one, drawn by protocol._draw."""
    def attempt(_):
        key, z = S or rng.randbytes(32), rng.randbytes(32)
        u, v = rng.randrange(1, profile.u_bound), rng.randrange(profile.v_bound)
        return key, serialize(alice_generate(
            derive_session(key, z, profile), u, v)), v
    return _draw(attempt)


def mutate_blob(rng: random.Random, blob: bytes, other: bytes,
                M: int) -> bytes:
    """One random, bit-flipped, truncated, extended or spliced message."""
    kind = rng.randrange(7)
    if kind == 0:  # random bytes, mostly near the wire length
        return rng.randbytes(rng.choice((0, 1, MESSAGE_LEN - 1, MESSAGE_LEN,
                                         MESSAGE_LEN + 1, rng.randrange(300))))
    if kind == 1:  # random fields, both values in range
        return (rng.randrange(M).to_bytes(32, "big")
                + rng.randrange(M).to_bytes(32, "big") + rng.randbytes(68))
    if kind == 2:  # a few flipped bits
        out = bytearray(blob)
        for _ in range(rng.randrange(1, 9)):
            bit = rng.randrange(8 * len(out))
            out[bit // 8] ^= 1 << bit % 8
        return bytes(out)
    if kind == 3:  # truncated
        return blob[:rng.randrange(len(blob))]
    if kind == 4:  # extended
        return blob + rng.randbytes(rng.randrange(1, 40))
    if kind == 5:  # spliced at a byte
        cut = rng.randrange(len(blob) + 1)
        return blob[:cut] + other[cut:]
    # one field set to an edge value: s1 or s3 at 0, M - 1 or M (every
    # profile's M fits 32 bytes), u at 0 or 2^32 - 1
    start, width, value = rng.choice((
        (0, 32, 0), (0, 32, M - 1), (0, 32, M), (32, 32, 0),
        (32, 32, M - 1), (32, 32, M), (64, 4, 0), (64, 4, (1 << 32) - 1)))
    return blob[:start] + value.to_bytes(width, "big") + blob[start + width:]


def wire_cases(rng: random.Random, count: int):
    """count mutated messages per profile through deserialize and receive,
    under the honest secret or, for one in eight, a random one of any
    length."""
    for profile in PROFILES:
        S, blob, _ = honest(rng, profile)
        _, other, _ = honest(rng, profile)
        for _ in range(count):
            data = mutate_blob(rng, blob, other, profile.mod.M)
            secret = S if rng.randrange(8) else rng.randbytes(rng.randrange(40))
            yield "deserialize", deserialize, (data, profile)
            yield "receive", receive, (secret, data, profile)


def agrees_with_oracle(S: bytes, data: bytes, profile):
    """receive's outcome, v or the name of its typed error; AssertionError
    unless oracles.naive_receive gives the same."""
    try:
        got = receive(S, data, profile)
    except (FourPointError, ValueError) as exc:
        got = type(exc).__name__
    want = naive_receive(S, data, profile)
    if got != want:
        raise AssertionError(f"receive gave {got!r}, the oracle {want!r}")
    return got


def oracle_cases(cases):
    """The receive cases among wire_cases, each against the oracle."""
    for surface, _, args in cases:
        if surface == "receive":
            yield "receive vs oracle", agrees_with_oracle, args


def session_secrets(S: bytes, data: bytes, profile) -> set:
    """Decimal strings of what the receiver derives from S for the
    well-formed message data: p, K, C, n, q1..q4 and the value recovered
    at data's s3. Empty when the derivation aborts."""
    msg = deserialize(data, profile)
    try:
        _, _, _, p, K, C, n, q = derive_session(S, msg.z, profile)
    except ProtocolAbort:
        return set()
    M, s3 = profile.mod.M, msg.s3.value
    p2u = pow(p, 2 * msg.u, M)
    e = msg.s1.value * p2u % M
    found = {p, K, C, n, *q}
    if e != s3:  # otherwise there is no recovered value
        A1, A3 = _kernel(*session_values(S, msg.z, K, C, n, M), q)
        found.add(_recover(_recovery_map(A1, A3, p2u, e, n, K, msg.u),
                           s3, K, M))
    return {str(value) for value in found}


def hides_session_values(S: bytes, data: bytes, profile):
    """receive's outcome; AssertionError if a rejection's text holds, as a
    whole decimal token, a value in session_secrets. On production each
    is drawn from 2^24 values or more, so a public number in a text, such
    as u, matches one by chance too rarely to show."""
    try:
        return receive(S, data, profile)
    except VerificationError as exc:
        text, kind = str(exc), type(exc).__name__
    leaked = set(re.findall(r"\d+", text)) & session_secrets(S, data, profile)
    if leaked:
        raise AssertionError(f"{kind} text carries {len(leaked)} "
                             f"secret-derived value(s)")
    return text


def leak_cases(cases):
    """The production receive cases among wire_cases, each checked by
    hides_session_values."""
    for surface, _, args in cases:
        if surface == "receive" and args[2] is PRODUCTION:
            yield "receive hides session values", hides_session_values, args


def sender_draw(rng: random.Random, profile) -> tuple:
    """(S, z, u, v, profile) for the sender, with S at least the profile's
    floor long and u and v each at an envelope corner (u = 1 or
    u_bound - 1, v = 0 or v_bound - 1) one time in two."""
    u_bound, v_bound = profile.u_bound, profile.v_bound
    u = rng.choice((1, u_bound - 1, rng.randrange(1, u_bound),
                    rng.randrange(1, u_bound)))
    v = rng.choice((0, v_bound - 1, rng.randrange(v_bound),
                    rng.randrange(v_bound)))
    return (rng.randbytes(rng.randrange(profile.min_secret_len, 41)),
            rng.randbytes(32), u, v, profile)


def sender_outcome(make) -> bytes | str:
    """The serialized Message of make(), or the name of what it raised."""
    try:
        return serialize(make())
    except (FourPointError, ValueError) as exc:
        return type(exc).__name__


def sends_as_the_oracle(S: bytes, z: bytes, u: int, v: int, profile):
    """The sender's bytes or abort class; AssertionError unless both of its
    paths give oracles.naive_send's: alice_generate over a plain session,
    and send's _generate over one derived with _offsets."""
    want = naive_send(S, z, u, v, profile)
    checked = sender_outcome(lambda: alice_generate(
        derive_session(S, z, profile), u, v))
    offset = sender_outcome(lambda: _generate(
        derive_session(S, z, profile, _offsets(profile, u, v)), u, v)[0])
    if not checked == offset == want:
        raise AssertionError(f"alice_generate gave {checked!r:.40}, "
                             f"_generate {offset!r:.40}, the oracle "
                             f"{want!r:.40}")
    return want


def oracle_round_trip(S: bytes, z: bytes, u: int, v: int, profile):
    """naive_send's outcome; AssertionError unless naive_receive reads v
    back from the message it sends: the loop with no package code."""
    blob = naive_send(S, z, u, v, profile)
    if isinstance(blob, bytes) and naive_receive(S, blob, profile) != v:
        raise AssertionError(f"naive_receive lost v = {v}")
    return blob


def sender_cases(rng: random.Random, count: int):
    """count sender_draw inputs per profile, each against the oracle and
    through the oracle's round trip."""
    for profile in PROFILES:
        for _ in range(count):
            args = sender_draw(rng, profile)
            yield "send vs oracle", sends_as_the_oracle, args
            yield "oracle round trip", oracle_round_trip, args


def nested(depth: int) -> list:
    out = []
    for _ in range(depth):
        out = [out]
    return out


def odd_value(rng: random.Random):
    """A wrong value: odd constants, huge and negative ints, huge digit
    strings, deep nesting, non-ASCII text and random odd numbers."""
    kind = rng.randrange(6)
    if kind == 0:
        return rng.choice(ODD_VALUES)
    if kind == 1:
        bits = rng.randrange(1, 2000)
        return rng.randrange(-(1 << bits), 1 << bits)
    if kind == 2:
        return "".join(rng.choices("0123456789", k=rng.randrange(1, 5000)))
    if kind == 3:
        return nested(rng.randrange(1, 3000))
    if kind == 4:
        return "".join(chr(rng.randrange(0x80, 0x3000))
                       for _ in range(rng.randrange(1, 20)))
    return rng.getrandbits(rng.randrange(2, 300)) | 1


FULLWIDTH = {ord("0") + k: 0xFF10 + k for k in range(10)}  # "２５７"


def respell(rng: random.Random, text: str) -> str:
    """text with spaces, a sign, a leading zero, a newline, an underscore
    or fullwidth digits: int() reads a number the same with each."""
    return rng.choice((f" {text} ", f"+{text}", f"0{text}", f"{text}\n",
                       f"{text[:1]}_{text[1:]}", text.translate(FULLWIDTH)))


def mutate_dict(rng: random.Random):
    """A builtin profile's dict with one to three keys dropped, added,
    type-swapped, re-spelled, nudged or replaced by an odd value; one in
    twenty is not a dict at all."""
    if rng.randrange(20) == 0:
        return odd_value(rng)
    d = profile_to_dict(rng.choice(PROFILES))
    for _ in range(rng.randrange(1, 4)):
        key = rng.choice(sorted(d) + ["extra"])
        kind = rng.randrange(5)
        if kind == 0:
            d.pop(key, None)
        elif kind == 1 and isinstance(d.get(key), (int, str)):
            value = d[key]  # an int becomes its digits, a str its length
            d[key] = str(value) if isinstance(value, int) else len(value)
        elif kind == 2 and isinstance(d.get(key), int):
            d[key] += rng.choice((-1, 1, -(1 << 64), 1 << 64))
        elif kind == 3 and isinstance(d.get(key), str):
            d[key] = respell(rng, d[key])
        else:
            d[key] = odd_value(rng)
    return d


def profile_text(rng: random.Random) -> bytes:
    """The bytes of a profile file: a mutated dict as JSON, then maybe
    inserted, deleted or replaced bytes (non-ASCII among them), a cut,
    deep nesting or padding past the size cap."""
    try:
        data = json.dumps(mutate_dict(rng)).encode("utf-8")
    except (RecursionError, ValueError):  # too deep for the encoder
        data = b"{}"
    for _ in range(rng.randrange(3)):
        kind, at = rng.randrange(6), rng.randrange(len(data) + 1)
        if kind == 0:
            data = data[:at] + rng.randbytes(rng.randrange(1, 8)) + data[at:]
        elif kind == 1:
            data = data[:at] + data[at + rng.randrange(1, 8):]
        elif kind == 2:
            data = data[:at] + bytes([rng.randrange(0x80, 0x100)]) + data[at:]
        elif kind == 3:
            data = data[:at]
        elif kind == 4:
            depth = rng.randrange(1, 4000)
            data = b"[" * depth + data + b"]" * rng.randrange(depth + 1)
        else:
            data += b" " * rng.randrange(4000, 5000)
    return data


def loads_as_written(d):
    """profile_from_dict(d); AssertionError unless profile_to_dict gives
    back d's values, M as its decimal string: a profile has one spelling,
    so two files cannot name it differently."""
    profile = profile_from_dict(d)
    written = profile_to_dict(profile)
    read = {key: str(d[key]) if key == "M" else d[key]
            for key in written if key in d}
    if read != {key: written[key] for key in read}:
        raise AssertionError(f"{read} loads as {written}")
    return profile


def profile_cases(rng: random.Random, directory, count: int):
    """count mutated dicts through profile_from_dict, which must read back
    as written, and count mutated files through load_profile, one in
    twenty a missing path or a directory."""
    for _ in range(count):
        yield "profile_from_dict", loads_as_written, (mutate_dict(rng),)
    for k in range(count):
        path = directory / f"profile-{k}.json"
        kind = rng.randrange(20)
        if kind == 0:
            path = directory / "missing.json"
        elif kind == 1:
            path = directory
        else:
            path.write_bytes(profile_text(rng))
        yield "load_profile", load_profile, (path,)


def violations(cases) -> list:
    """(surface, exception) for each case whose call raised an exception
    outside ALLOWED."""
    found = []
    for surface, call, args in cases:
        try:
            call(*args)
        except ALLOWED:
            pass
        except Exception as exc:  # the property under test
            found.append((surface, exc))
    return found


def run_cli(argv: list) -> int:
    """cli.main(argv) with stdout and stderr captured; AssertionError
    unless it returns 0, 1 or 2 or argparse refuses argv with exit 2, and
    with no traceback on stderr. An exception main lets out is a
    violation whatever its type, so it is raised as AssertionError."""
    err = io.StringIO()
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse's usage error
        code = exc.code if exc.code == 2 else f"SystemExit({exc.code})"
    except Exception as exc:  # the property under test
        raise AssertionError(f"{argv}: {type(exc).__name__}: {exc}") from exc
    if code not in (0, 1, 2) or "Traceback" in err.getvalue():
        raise AssertionError(f"{argv}: exit {code}: {err.getvalue()[:200]}")
    return code


# flag values that are never right: argparse or the command refuses them
ODD_WORDS = ("", "x", "-1", "0", "1e3", "0x10", str(1 << 64), "9" * 5000)
# the odd --trials values, each refused before a game runs: a valid count
# above 150, or attack's default of 10000, would take seconds or forever
ODD_TRIALS = ("", "x", "-1", "0", "99", "1e3", "0x10", "9" * 5000)
PATH_FLAGS = ("--secret-file", "--in", "--out", "--nonce-log")


def cli_argv(rng: random.Random, directory) -> list:
    """One argv for cli.main: a command and its flags, each value valid
    nine times in ten and otherwise an odd word or, for a path, the
    directory or a missing path. The files at the valid paths vary too:
    a secret too short, too long or random, an honest or mutated message,
    a dumped or mutated profile. Then, one time in three, one flag is
    dropped, doubled or unknown, or the command is replaced. selftest and
    attack come one time in sixteen each, on builtin profiles only and
    with at most 150 trials (--trials is never dropped, and its odd
    values are refused at once), so the corpus stays fast. Every path lies
    inside the directory, and send always names its nonce log, so
    nothing is written elsewhere."""
    profile = rng.choice(PROFILES)
    secret, message = directory / "secret.bin", directory / "msg.bin"
    S = rng.randbytes(32)
    secret.write_bytes(rng.choice((
        S, S, S, S, S, S[:rng.randrange(8)], rng.randbytes(4097),
        rng.randbytes(rng.randrange(200)))))
    _, blob, _ = honest(rng, profile, S)
    if rng.randrange(2):
        _, other, _ = honest(rng, profile, S)
        blob = mutate_blob(rng, blob, other, profile.mod.M)
    message.write_bytes(blob)
    custom = directory / "profile.json"
    if rng.randrange(2):
        dump_profile(profile, custom)
    else:
        custom.write_bytes(profile_text(rng))

    def odd(flag: str) -> str:
        if flag in PATH_FLAGS:
            return str(rng.choice((directory, directory / "missing.bin",
                                   directory / "missing" / "out.bin")))
        return rng.choice(ODD_TRIALS if flag == "--trials" else ODD_WORDS)

    names = ("mini", "toy", "production")
    command = rng.choice(("send",) * 6 + ("recv",) * 6 + ("fixtures",) * 2
                         + ("selftest", "attack"))
    if command == "send":
        flags = {"--secret-file": secret, "--profile": (profile.name, custom),
                 "--v": rng.randrange(profile.v_bound),
                 "--u": rng.randrange(1, profile.u_bound),
                 "--out": directory / "out.bin"}
    elif command == "recv":
        flags = {"--secret-file": secret, "--in": message,
                 "--profile": (profile.name, custom)}
    elif command == "fixtures":
        flags = {"--out": (directory / "fixtures", message)}
    elif command == "selftest":
        flags = {"--profile": names, "--seed": (0, 1, 7)}
    else:
        flags = {"--profile": names, "--trials": (100, 150),
                 "--seed": (0, 3), "--adversary": "random"}
    argv = [command]
    for flag, valid in flags.items():
        valid = valid if isinstance(valid, tuple) else (valid,)
        argv += [flag, str(rng.choice(valid)) if rng.randrange(10)
                 else odd(flag)]
    kind = rng.randrange(12)
    if kind == 0:  # a flag other than --trials dropped, with its value
        at = 1 + 2 * rng.randrange(len(flags))
        if argv[at] != "--trials":
            del argv[at:at + 2]
    elif kind == 1:  # a flag given twice: the last one counts
        flag = rng.choice(list(flags))
        argv += [flag, odd(flag)]
    elif kind == 2:  # an unknown flag, or a flag without its value
        argv += rng.choice((["--bogus", "1"], ["--z", "00"], [argv[1]]))
    elif kind == 3:  # no command, or one that does not exist
        argv[0] = rng.choice(("sned", "verify", "--profile"))
    if argv[0] == "send":  # never the default log in the working directory
        argv += ["--nonce-log", str(directory / "nonces") if rng.randrange(10)
                 else str(secret)]
    return argv


def cli_cases(rng: random.Random, directory, count: int):
    """count argv from cli_argv through cli.main."""
    for _ in range(count):
        yield "cli", run_cli, (cli_argv(rng, directory),)
