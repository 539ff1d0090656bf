import itertools
import json
import os
import re
import runpy
import stat
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import fourpoint
from fourpoint import selftest
from fourpoint.cli import main
from fourpoint.errors import NonInvertible, ProtocolAbort, RejectHash
from fourpoint.modmath import is_probable_prime
from fourpoint.protocol import (MESSAGE_LEN, PRODUCTION, TOY, NonceLog,
                                alice_generate, derive_session, dump_profile,
                                profile_to_dict)

SRC = str(Path(fourpoint.__file__).resolve().parent.parent)


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "secret.bin").write_bytes(b"a shared secret!")
    return tmp_path


def send_args(d, v=17, extra=()):
    return ["send", "--secret-file", str(d / "secret.bin"),
            "--v", str(v), "--u", "5",
            "--out", str(d / "msg.bin"),
            "--nonce-log", str(d / "nonces.log"), *extra]


def recv_args(d, infile="msg.bin"):
    return ["recv", "--secret-file", str(d / "secret.bin"),
            "--in", str(d / infile)]


class TestSendRecv:
    def test_happy_path(self, workdir, capsys):
        assert main(send_args(workdir)) == 0
        assert len((workdir / "msg.bin").read_bytes()) == MESSAGE_LEN
        assert main(recv_args(workdir)) == 0
        assert capsys.readouterr().out.strip().splitlines()[-1] == "17"

    def test_tampered_message_rejected(self, workdir, capsys):
        main(send_args(workdir))
        blob = bytearray((workdir / "msg.bin").read_bytes())
        blob[70] ^= 0x40
        (workdir / "msg.bin").write_bytes(bytes(blob))
        assert main(recv_args(workdir)) == 1
        assert "rejected" in capsys.readouterr().out

    def test_truncated_message_is_malformed(self, workdir, capsys):
        main(send_args(workdir))
        blob = (workdir / "msg.bin").read_bytes()
        (workdir / "msg.bin").write_bytes(blob[:80])
        assert main(recv_args(workdir)) == 2
        assert "malformed" in capsys.readouterr().err

    def test_wrong_secret_rejected(self, workdir, capsys):
        main(send_args(workdir))
        (workdir / "other.bin").write_bytes(b"b shared secret!")
        rc = main(["recv", "--secret-file", str(workdir / "other.bin"),
                   "--in", str(workdir / "msg.bin")])
        assert rc == 1

    def test_rejections_print_one_word(self, workdir, capsys):
        # a tampered u (range check), a tampered check hash and a wrong
        # secret fail different checks; stdout must not tell them apart
        main(send_args(workdir))
        blob = (workdir / "msg.bin").read_bytes()
        (workdir / "other.bin").write_bytes(b"b shared secret!")
        for name, pos in (("bad_u.bin", 64), ("bad_h.bin", 120)):
            bad = bytearray(blob)
            bad[pos] ^= 0xff
            (workdir / name).write_bytes(bytes(bad))
        capsys.readouterr()
        outputs = []
        for argv in (recv_args(workdir, "bad_u.bin"),
                     recv_args(workdir, "bad_h.bin"),
                     ["recv", "--secret-file", str(workdir / "other.bin"),
                      "--in", str(workdir / "msg.bin")]):
            assert main(argv) == 1
            outputs.append(capsys.readouterr().out)
        assert outputs == ["rejected\n"] * 3

    def test_field_overflow_is_malformed(self, workdir, capsys):
        main(send_args(workdir))
        blob = (workdir / "msg.bin").read_bytes()
        (workdir / "msg.bin").write_bytes(b"\xff" * 32 + blob[32:])
        assert main(recv_args(workdir)) == 2
        assert "malformed" in capsys.readouterr().err

    def test_oversized_input_is_malformed_without_reading_it(self, workdir,
                                                             capsys):
        with open(workdir / "big.bin", "wb") as fh:
            fh.truncate(64 << 20)  # sparse: 64 MB of zeros, no disk used
        tracemalloc.start()
        try:
            rc = main(recv_args(workdir, "big.bin"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2
        assert "malformed" in capsys.readouterr().err
        assert peak < 1 << 20

    def test_oversized_secret_is_refused_without_reading_it(self, workdir,
                                                            capsys):
        main(send_args(workdir))
        with open(workdir / "big.bin", "wb") as fh:
            fh.truncate(64 << 20)  # sparse: 64 MB of zeros, no disk used
        capsys.readouterr()
        send = send_args(workdir)
        send[send.index("--out") + 1] = str(workdir / "new.bin")
        for argv in (send, recv_args(workdir)):
            argv[argv.index("--secret-file") + 1] = str(workdir / "big.bin")
            tracemalloc.start()
            try:
                rc = main(argv)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert rc == 2
            captured = capsys.readouterr()
            assert len(captured.err.strip().splitlines()) == 1
            assert captured.out == ""
            assert peak < 1 << 20
        assert not (workdir / "new.bin").exists()

    def test_out_of_range_v(self, workdir):
        assert main(send_args(workdir, v=257)) == 2
        assert main(send_args(workdir, v=-1)) == 2


class TestNonceHandling:
    Z = "ab" * 32

    def test_explicit_nonce_is_an_unknown_argument(self, workdir, capsys):
        # send draws every nonce itself; the CLI has no route to reuse one
        with pytest.raises(SystemExit) as exc:
            main(send_args(workdir, extra=["--z", self.Z]))
        assert exc.value.code == 2
        assert "unrecognized arguments: --z" in capsys.readouterr().err
        assert not (workdir / "msg.bin").exists()

    def test_explicit_nonce_that_aborts(self, workdir, capsys, monkeypatch):
        # an RNG stuck on the first nonce 0, 1, 2, ... whose session aborts
        # for send_args' secret, u and v: every try aborts
        S = (workdir / "secret.bin").read_bytes()
        for k in itertools.count():
            z = k.to_bytes(32, "big")
            try:
                alice_generate(derive_session(S, z, TOY), 5, 17)
            except ProtocolAbort as exc:
                kind = type(exc).__name__
                break
        monkeypatch.setattr(os, "urandom", lambda n: z)
        assert main(send_args(workdir)) == 2
        assert capsys.readouterr().err.startswith(f"send failed: {kind}: ")
        assert not (workdir / "msg.bin").exists()
        assert not any((workdir / "nonces.log").glob("*"))

    def test_second_claim_of_a_nonce_fails(self, workdir):
        log = NonceLog(workdir / "nonces.log")
        z = bytes.fromhex(self.Z)
        assert log.claim(b"secret", z)
        assert not log.claim(b"secret", z)
        assert log.claim(b"other secret", z)
        # a log whose parent directories do not exist yet creates them
        nested = NonceLog(workdir / "new" / "dir" / "nonces.log")
        assert nested.claim(b"secret", z)
        assert not nested.claim(b"secret", z)

    def test_log_is_owner_only(self, workdir):
        old = os.umask(0o022)  # under which the defaults give 0o755
        try:
            log = NonceLog(workdir / "nonces.log")
            assert log.claim(b"secret", bytes.fromhex(self.Z))
        finally:
            os.umask(old)
        (entry,) = log.path.iterdir()
        assert stat.S_IMODE(log.path.stat().st_mode) == 0o700
        assert stat.S_IMODE(entry.stat().st_mode) == 0o600

    @pytest.mark.parametrize("mode", [0o755, 0o750, 0o701])
    def test_log_open_to_others_is_refused(self, workdir, capsys, mode):
        # a log directory made before the log was owner-only, or by a
        # plain mkdir: send stops naming it and its mode, and sends once
        # the owner alone may use it
        (workdir / "nonces.log").mkdir()
        (workdir / "nonces.log").chmod(mode)
        assert main(send_args(workdir)) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"send: nonce log {workdir / 'nonces.log'} has mode "
                       f"{mode:#o}, open to group or others; chmod 700 it"]
        assert not (workdir / "msg.bin").exists()
        assert not any((workdir / "nonces.log").iterdir())
        (workdir / "nonces.log").chmod(0o700)
        assert main(send_args(workdir)) == 0

    def test_explicit_nonce_reuse_blocked(self, workdir, capsys, monkeypatch):
        # an RNG that repeats one usable nonce: the second send finds it
        # in the log on every try and sends nothing
        monkeypatch.setattr(os, "urandom", lambda n: bytes.fromhex(self.Z))
        assert main(send_args(workdir, v=17)) == 0
        capsys.readouterr()
        assert main(send_args(workdir, v=18)) == 2
        captured = capsys.readouterr()
        assert captured.err == "send failed: ProtocolAbort: no usable nonce\n"
        assert captured.out == ""
        assert len(list((workdir / "nonces.log").iterdir())) == 1

    def test_explicit_nonce_reuse_keeps_earlier_message(self, workdir,
                                                        monkeypatch):
        monkeypatch.setattr(os, "urandom", lambda n: bytes.fromhex(self.Z))
        assert main(send_args(workdir, v=17)) == 0
        first = (workdir / "msg.bin").read_bytes()
        assert first[68:100] == bytes.fromhex(self.Z)
        assert main(send_args(workdir, v=18)) == 2
        assert (workdir / "msg.bin").read_bytes() == first
        assert main(recv_args(workdir)) == 0

    def test_auto_nonces_never_repeat(self, workdir):
        zs = set()
        for k in range(5):
            out = workdir / f"m{k}.bin"
            rc = main(["send", "--secret-file", str(workdir / "secret.bin"),
                       "--v", "1", "--out", str(out),
                       "--nonce-log", str(workdir / "nonces.log")])
            assert rc == 0
            zs.add(out.read_bytes()[68:100])
        assert len(zs) == 5
        assert len(list((workdir / "nonces.log").iterdir())) == 5

    def test_concurrent_claims_of_one_nonce_admit_one(self, workdir):
        log = NonceLog(workdir / "nonces.log")
        z = bytes.fromhex(self.Z)

        def race(pairs):
            start = threading.Barrier(len(pairs))

            def claim(pair):
                start.wait()
                return log.claim(*pair)
            with ThreadPoolExecutor(len(pairs)) as pool:
                return list(pool.map(claim, pairs))

        assert sorted(race([(b"secret", z)] * 8)) == [False] * 7 + [True]
        assert race([(b"secret", bytes([k]) * 32) for k in range(8)]) \
            == [True] * 8

    def test_old_single_file_log_fails_closed(self, workdir, capsys):
        # a log written by the line-per-entry format sits where the
        # directory goes; send must stop rather than start a fresh log
        (workdir / "nonces.log").write_text(f"{'0' * 32} {self.Z}\n")
        assert main(send_args(workdir)) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "nonces.log" in err[0]
        assert not (workdir / "msg.bin").exists()

    def test_dangling_symlink_log_fails_closed(self, workdir, capsys):
        # the directory cannot be made at the log path: send stops with
        # the path's error at once, before any draw, naming no entry
        (workdir / "nonces.log").symlink_to(workdir / "nowhere")
        assert main(send_args(workdir)) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("send: [Errno ")
        assert err[0].endswith(repr(str(workdir / "nonces.log")))
        assert not (workdir / "msg.bin").exists()
        assert not (workdir / "nowhere").exists()


def _short_secret(d):
    (d / "short.bin").write_bytes(b"short")
    return ["recv", "--secret-file", str(d / "short.bin"),
            "--in", str(d / "msg.bin")]


def _missing_secret(d):
    args = send_args(d)
    args[args.index("--secret-file") + 1] = str(d / "absent.bin")
    return args


def _missing_infile(d):
    return recv_args(d, infile="absent.bin")


def _profile_not_json(d):
    (d / "p.json").write_text("{not json")
    return recv_args(d) + ["--profile", str(d / "p.json")]


def _profile_missing_key(d):
    dump_profile(TOY, d / "p.json")
    text = (d / "p.json").read_text().replace('"K_max"', '"K_maximum"')
    (d / "p.json").write_text(text)
    return send_args(d) + ["--profile", str(d / "p.json")]


def _write_profile(d, profile, **changes):
    (d / "p.json").write_text(json.dumps({**profile_to_dict(profile),
                                          **changes}))
    return str(d / "p.json")


def _profile_not_object(d):
    (d / "p.json").write_text("[1, 2]")
    return send_args(d) + ["--profile", str(d / "p.json")]


def _profile_null_value(d):
    return send_args(d) + ["--profile", _write_profile(d, TOY, u_bits=None)]


def _profile_other_hash(d):
    return send_args(d) + ["--profile", _write_profile(d, TOY, hash="md5")]


def _profile_u_too_wide(d):
    # u = 2^32 fits u_bits 40 but not the 4-byte wire field
    return send_args(d, extra=["--u", str(1 << 32), "--profile",
                               _write_profile(d, TOY, u_bits=40)])


def _profile_v_too_wide(d):
    # v = 2^66 fits v_bits 70 but not the 8-byte check encoding
    (d / "long.bin").write_bytes(b"a production-length shared secret")
    args = send_args(d, v=1 << 66, extra=[
        "--profile", _write_profile(d, PRODUCTION, v_bits=70)])
    args[args.index("--secret-file") + 1] = str(d / "long.bin")
    return args


def _profile_u_bits_huge(d):
    # compared as a number: 1 << u_bits would ask for 12.5 GB
    return send_args(d) + ["--profile",
                           _write_profile(d, TOY, u_bits=10 ** 11)]


def _profile_over_the_size_cap(d):
    # refused unread; parsed, its nesting would raise RecursionError
    (d / "p.json").write_text("[" * 200_000)
    return send_args(d) + ["--profile", str(d / "p.json")]


def _profile_nested_too_deep(d):
    # at the size cap, nested past the JSON parser's depth
    (d / "p.json").write_text("[" * 4096)
    return send_args(d) + ["--profile", str(d / "p.json")]


def _profile_u_bits_zero(d):
    # no u in [1, 2^0) exists, so such a profile could never send
    return send_args(d) + ["--profile", _write_profile(d, TOY, u_bits=0)]


def _profile_v_bits_negative(d):
    return send_args(d) + ["--profile", _write_profile(d, TOY, v_bits=-1)]


def _profile_grid_too_wide(d):
    # K = 2^384 does not fit the 48-byte PRF index
    return send_args(d) + ["--profile", _write_profile(
        d, TOY, K_min=1 << 384, K_max=1 << 384)]


def _profile_modulus_too_wide(d):
    # a prime, so only its width refuses it: the 32-byte fields cannot
    # hold it
    M = (1 << 256) + 297
    assert is_probable_prime(M)
    return send_args(d) + ["--profile", _write_profile(d, TOY, M=str(M))]


def _profile_modulus_3900_digits(d):
    # under the 4096-byte file cap; one Miller-Rabin round on this M
    # takes seconds, so its width is refused before the primality test
    path = _write_profile(d, TOY, M=str(10 ** 3899 + 1))
    assert os.path.getsize(path) <= 4096
    return ["selftest", "--profile", path]


def _profile_modulus_fullwidth_digits(d):
    # json.dumps writes the ASCII escapes, so the file reads as ASCII
    path = _write_profile(d, TOY, M="\uff12\uff15\uff17")
    assert Path(path).read_bytes().isascii()
    return ["selftest", "--profile", path]


def _profile_not_ascii(d):
    # a valid profile but for one UTF-8 name, which the ASCII decode refuses
    (d / "p.json").write_bytes(json.dumps(
        {**profile_to_dict(TOY), "name": "t\u00f4y"},
        ensure_ascii=False).encode("utf-8"))
    return send_args(d) + ["--profile", str(d / "p.json")]


@pytest.mark.parametrize("build", [_short_secret, _missing_secret,
                                   _missing_infile, _profile_not_json,
                                   _profile_missing_key, _profile_not_object,
                                   _profile_null_value, _profile_other_hash,
                                   _profile_u_too_wide,
                                   _profile_v_too_wide,
                                   _profile_u_bits_huge,
                                   _profile_over_the_size_cap,
                                   _profile_nested_too_deep,
                                   _profile_u_bits_zero,
                                   _profile_v_bits_negative,
                                   _profile_grid_too_wide,
                                   _profile_modulus_too_wide,
                                   _profile_modulus_3900_digits,
                                   _profile_modulus_fullwidth_digits,
                                   _profile_not_ascii])
def test_malformed_input_exits_2(workdir, capsys, build):
    assert main(send_args(workdir)) == 0
    capsys.readouterr()
    assert main(build(workdir)) == 2
    captured = capsys.readouterr()
    assert len(captured.err.strip().splitlines()) == 1
    assert captured.out == ""


@pytest.mark.parametrize("key, value", [("u_bits", 0), ("v_bits", -1)])
def test_send_names_the_bad_bit_width(workdir, capsys, key, value):
    args = send_args(workdir) + ["--profile",
                                 _write_profile(workdir, TOY, **{key: value})]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("send: ") and f"{key} must be >= " in err
    assert not (workdir / "msg.bin").exists()


def _always_singular(*args):
    raise NonInvertible("forced")


class TestSelftestAndAttack:
    def test_selftest_passes(self, workdir, capsys):
        assert main(["selftest", "--profile", "mini", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") >= 6
        assert "FAIL" not in out

    def test_library_error_fails_its_suite_only(self, monkeypatch, capsys):
        def reject(*args):
            raise RejectHash("forced")
        monkeypatch.setattr(selftest, "bob_verify", reject)
        assert main(["selftest", "--profile", "mini", "--seed", "1"]) == 1
        out = capsys.readouterr().out.splitlines()
        fails = [ln for ln in out if ln.startswith("FAIL  ")]
        assert len(fails) == 1
        assert "protocol round trip" in fails[0] and "RejectHash" in fails[0]
        assert out[-1] == "FAIL: selftest on profile mini, 1 failing suite(s)"

    def test_wrong_v_fails_round_trip_and_tamper_suites(self, monkeypatch,
                                                        capsys):
        # a receiver that accepts everything with a wrong value fails the
        # suites' own assertions, not a library error; the round-trip
        # suite calls bob_verify and the tamper suite receive
        monkeypatch.setattr(selftest, "bob_verify", lambda *args: -1)
        monkeypatch.setattr(selftest, "receive", lambda *args: -1)
        assert main(["selftest", "--profile", "mini", "--seed", "1"]) == 1
        out = capsys.readouterr().out.splitlines()
        fails = [ln for ln in out if ln.startswith("FAIL  ")]
        assert len(fails) == 2
        assert "protocol round trip" in fails[0]
        assert "tamper rejection" in fails[1]
        assert "tampered message accepted" in fails[1]
        assert out[-1] == "FAIL: selftest on profile mini, 2 failing suite(s)"

    @pytest.mark.parametrize("name, fake, label, detail", [
        # each fake returns 1, which the suite's own check refuses
        ("expected_constant", lambda *args: 1, "invariant exactness", ""),
        ("eval_invariant", _always_singular, "invariant exactness",
         "no session had an invertible invariant denominator"),
        ("deserialize", lambda *args: 1, "serialization", ""),
        ("eval_at", lambda *args: 1, "oscillator antiperiodicity", ""),
    ], ids=["constant", "all-singular", "deserialize", "eval_at"])
    def test_each_other_suite_fails_on_its_own_check(self, monkeypatch,
                                                     capsys, name, fake,
                                                     label, detail):
        monkeypatch.setattr(selftest, name, fake)
        assert main(["selftest", "--profile", "mini", "--seed", "1"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert [ln for ln in out if ln.startswith("FAIL  ")] \
            == [f"FAIL  {label:32} {detail}"]
        assert out[-1] == "FAIL: selftest on profile mini, 1 failing suite(s)"

    def test_suites_still_check_under_optimize(self):
        # python -O strips assert statements, so a suite that checked with
        # them would pass a receiver that returns the wrong v
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [SRC, env.get("PYTHONPATH")]))
        code = ("import sys\n"
                "from fourpoint import cli, selftest\n"
                "selftest.bob_verify = lambda *args: -1\n"
                "sys.exit(cli.main(['selftest', '--profile', 'mini']))\n")
        proc = subprocess.run([sys.executable, "-O", "-c", code],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 1
        fails = [ln for ln in proc.stdout.splitlines()
                 if ln.startswith("FAIL  ")]
        assert fails and "protocol round trip" in fails[0]

    @pytest.mark.parametrize("command", ["selftest", "attack"])
    @pytest.mark.parametrize("changes, why", [
        # every K is 0 mod 3: the profile is refused at load
        ({"K_min": 3, "K_max": 3},
         r": K range \[3, 3\] holds only multiples of M, so every draw "
         r"aborts"),
        # t + 1 or t + 2 is 0 mod 3: the draws give up
        ({"u_bits": 1, "v_bits": 0}, r" failed: Abort\w+: .*"),
    ], ids=["K-is-0-mod-M", "u-1-v-0"])
    def test_profile_whose_every_draw_aborts_exits_2(self, tmp_path, command,
                                                     changes, why):
        # each game redraws at most NONCE_TRIES times; the timeout fails
        # a loop that never ends
        path = _write_profile(tmp_path, TOY, name="degenerate", M="3",
                              **changes)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [SRC, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "fourpoint.cli", command,
                               "--profile", path], capture_output=True,
                              text=True, env=env, timeout=20)
        assert proc.returncode == 2
        assert re.fullmatch(rf"{command}{why}\n", proc.stderr)
        assert proc.stdout == ""

    def test_attack_csv(self, capsys):
        assert main(["attack", "--trials", "150", "--seed", "9"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "game_id,adversary,trials,wins,ci_low,ci_high"
        assert lines[1].startswith("random-toy-9,random,150,")

    def test_unknown_adversary(self, capsys):
        assert main(["attack", "--adversary", "quantum"]) == 2


@pytest.mark.parametrize("inverse", ["_sweep_inv"])
def test_ledger_oracles_refuse_a_value_with_no_inverse(inverse):
    invert = getattr(selftest, inverse)
    for a in (0, 257, -257):
        with pytest.raises(ValueError, match="not invertible"):
            invert(a, 257)
    assert invert(3, 257) * 3 % 257 == 1
    with pytest.raises(ValueError, match="^negative exponent$"):
        selftest._naive_pow(3, -1, 257)


class TestFixtures:
    def test_outputs_are_deterministic(self, tmp_path, capsys):
        for d in ("f1", "f2"):
            assert main(["fixtures", "--out", str(tmp_path / d)]) == 0
        v1 = (tmp_path / "f1" / "vectors.txt").read_bytes()
        v2 = (tmp_path / "f2" / "vectors.txt").read_bytes()
        assert v1 == v2
        d1 = (tmp_path / "f1" / "discrepancies.txt").read_bytes()
        d2 = (tmp_path / "f2" / "discrepancies.txt").read_bytes()
        assert d1 == d2

    def test_vectors_verify_end_to_end(self, tmp_path, capsys):
        main(["fixtures", "--out", str(tmp_path / "fx")])
        capsys.readouterr()
        lines = [ln for ln in
                 (tmp_path / "fx" / "vectors.txt").read_text().splitlines()
                 if ln and not ln.startswith("#")]
        assert len(lines) == 8
        for ln in lines:
            profile, s_hex, _z, u, v, msg_hex = ln.split()
            assert profile == "toy"
            (tmp_path / "s.bin").write_bytes(bytes.fromhex(s_hex))
            (tmp_path / "m.bin").write_bytes(bytes.fromhex(msg_hex))
            rc = main(["recv", "--secret-file", str(tmp_path / "s.bin"),
                       "--in", str(tmp_path / "m.bin")])
            assert rc == 0
            assert capsys.readouterr().out.strip() == v
            int(u)  # documented public spacing, must parse


class TestProfileFiles:
    def test_json_profile_path(self, workdir, capsys):
        pj = workdir / "toyish.json"
        dump_profile(TOY, pj)
        rc = main(["send", "--secret-file", str(workdir / "secret.bin"),
                   "--profile", str(pj), "--v", "3",
                   "--out", str(workdir / "m.bin"),
                   "--nonce-log", str(workdir / "nonces.log")])
        assert rc == 0
        assert main(["recv", "--secret-file", str(workdir / "secret.bin"),
                     "--profile", str(pj),
                     "--in", str(workdir / "m.bin")]) == 0
        assert capsys.readouterr().out.strip().splitlines()[-1] == "3"


def test_installed_entry_point():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "fourpoint.cli", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "send" in proc.stdout and "recv" in proc.stdout


def test_module_main_guard_runs_the_parser(monkeypatch, capsys):
    # in process, so that a line trace of the suite reaches the guard; the
    # loaded module leaves sys.modules so that runpy does not warn
    monkeypatch.delitem(sys.modules, "fourpoint.cli")
    monkeypatch.setattr(sys, "argv", ["fourpoint", "--help"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("fourpoint.cli", run_name="__main__")
    assert exc.value.code == 0
    assert "invariant-based symmetric authentication" in capsys.readouterr().out
