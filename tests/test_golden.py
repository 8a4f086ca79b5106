"""Byte-for-byte guard on the CLI reports.

Every README command, plus one integrality FAIL, three more degree scans,
three p-adic exponents, three valdyn orbits with infinite or non-integer
valuations, the transversality and integrality cases of the benchmark, and
six more additive transversality shapes, is pinned by its exit code and the
sha256 of its stdout.  Only the ``elapsed_us`` timing is masked before
hashing; every other byte of the report must stay the same.
"""

import hashlib
import re

import pytest

from bicrit.cli import main

GOLDEN = [
    ("belyi coeffs --d 5 --k 2", 0,
     "9b618f9f72c7f7d5249653605a27748725c29362d9314623556953166882e054"),
    ("belyi ncrit --d 4 --profile 1,1 --gamma sym", 0,
     "873dde2ad8cef70d91391ccdc40dbd103e9fcba5e335793a3156c79867cf4982"),
    ("idf find --d 27 --k 3", 0,
     "63033a85a007b4d8b39af6aef2d83c352bf90b3e0d178229d6e90024dff3c090"),
    ("idf scan --k 3 --dmax 100000 --jobs 4 --format csv", 0,
     "90d115ec72e0b1430cfbd490eed7aebfb4b44270ce831c0bae630b07d0bc08f7"),
    # scans as JSON, and as CSV with --jobs 2 and 3, which the scan ignores
    ("idf scan --k 3 --dmax 2000", 0,
     "e493114550f005cc2e6b162ddc08270ca123efa7482138a913850a7ecc12f070"),
    ("idf scan --k 7 --dmax 40462 --jobs 2 --format csv", 0,
     "048f1a474289a50b907d19ac3f54f02c8fd9a31794ab4b18839e0a412b3b4ebb"),
    ("idf scan --k 10 --dmax 30000 --jobs 3 --format csv", 0,
     "89f2107340910610d7e3c8d4f717ab69cfeb061b6b8172e6a23ecb768309e061"),
    ("idf mordell --xmax 1000 --format csv", 0,
     "3c06aebabbeae8f4fcdc351de3925bb7ed1344126536acf6ff272b4750236f99"),
    # exponents read by stripping p: 3^20 by trial division, an r = 2
    # witness, and the exponent loop of is_idf_prime under valdyn classify
    ("idf find --d 3486784401 --k 1", 0,
     "49363c36dfb7197739a48f6d9e223867a20e5dd54b1df2ffd68c7fea8e2b0ef2"),
    ("idf find --d 16 --k 2", 0,
     "a5970ec7ace59ffba7800b21a6ca57bbb154eed0f64ed0975787e22fd4ddf96d"),
    ("valdyn classify --d 16 --k 2 --r 2 --e 1 --valpha 1 --vbeta -1", 0,
     "af17a046e87feac16523122931f98baa6c709ac3be0659570470ee8e8bb7be58"),
    ("idf conjecture --n 51 --k 3", 0,
     "70ed1b0e0ec75ca75304e13bd1459cf1692c57bc3fd71682e00d1dd5dd194c57"),
    ("valdyn classify --d 5 --k 1 --r 0 --e 1 --valpha 2 --vbeta -1", 0,
     "d480efef98db5d9f23cd5f391e082b4a6b545b87a25acdcc5a5b1f52de74d16b"),
    ("valdyn orbit --d 5 --k 1 --r 0 --e 1 --valpha -1 --vbeta -1 --start 0 --steps 8", 0,
     "3a0a1409fecb763d3fc9f730803cdc42fd61d88e6adc265504c5fa7b41dc1a91"),
    # valuations that are infinite, or no integers: every step inf, a
    # CASE4III orbit with inexact steps, and a CASE4I certificate whose
    # step_decrement is -3/2
    ("valdyn orbit --d 5 --k 1 --r 0 --e 1 --valpha 2 --vbeta inf --start 0 --steps 4", 0,
     "ccd46471a6d1e43e60f1d4b9dc7c10937512b5417db2cd33dbf027e2072276a7"),
    ("valdyn orbit --d 5 --k 1 --r 0 --e 1 --valpha 4 --vbeta -1 --start 1 --steps 4", 0,
     "628de6d295e1176263a96c3e9fb25f34117bd80e546b93daae99ed0fe21909c2"),
    ("valdyn orbit --d 7 --k 2 --r 0 --e 1 --valpha=1/2 --vbeta=-1/3 --start 1 --steps 5", 0,
     "eb025f63083a8ccc3ef941d6138de70fb90e1f44962eaf8ad7b3d2895d0450cc"),
    ("pcf locus --d 3 --k 1 --n 2 --m 1", 0,
     "db1cd429217898e5a6692ab98d4fcb42d55a79a2c79c3180bd882797353010b3"),
    ("pcf integrality --d 3 --k 1 --n 2 --m 1", 0,
     "9ba719dec4a021bfd6d19e4f32bce7e07280342351c6880557f41de44f6b6137"),
    ("pcf transversality --d 3 --k 1 --n 2 --m 1 --emax 2", 0,
     "09a9d4da567bfab1455a40d4b13a8ea69556947ec1857d789a2ecc768b8dc4f8"),
    ("pcf counterexamples", 0,
     "dad5a1a2f235cb32d8c3cc8bb7dd0cb62012c57a4fc1ba77d2f8b3fa31f97754"),
    ("pcf integrality --d 9 --k 3 --n 1 --m 2", 1,
     "7439ad3389e086edaaf5e34b622876f2a2b9b5a19d8fd4a680c570ba8ef7c7ce"),
    # the ten transversality slots of the pcf benchmark workload
    # (perfbench/workloads.py), run with its --budget
    ("pcf transversality --d 3 --k 1 --n 3 --m 2 --emax 3 --budget 1000000", 0,
     "3d331012d31fd4ec121ea15894b0e78382668bda7fb5f3f5fc44c9ef9a0cf8b8"),
    ("pcf transversality --d 7 --k 2 --n 2 --m 2 --emax 2 --budget 1000000", 0,
     "a2370e4687b47905d65422e257b9c28d42220eeb6dc1ae8b8415f649614e2c02"),
    ("pcf transversality --d 5 --k 2 --n 1 --m 2 --emax 3 --budget 1000000", 0,
     "c8ad61ebe49e10509663d96ee6feaff0732cc40106d3af4d50cc0622aa3e1c1f"),
    ("pcf transversality --d 11 --k 4 --n 1 --m 2 --emax 2 --budget 1000000", 0,
     "58ccb24c08a146b24bba524c6678c15df966c79fcbaeb00b48b13dc809e0f07a"),
    ("pcf transversality --d 13 --k 6 --n 1 --m 1 --emax 2 --budget 1000000", 0,
     "f4f1f39156c35c7daa10453d19fcb5465d943e7fbd1f0b93051857a530c4e47f"),
    ("pcf transversality --d 4 --k 1 --n 2 --m 2 --emax 6 --budget 1000000", 0,
     "f558d3c63bf86d622267e59461663f7f8c543ee83bc53fc10144312867ca48f0"),
    ("pcf transversality --d 6 --k 1 --n 2 --m 2 --emax 6 --budget 1000000", 0,
     "15904658ca347a98bcda554cb6f7233f15821b06aaefe3ad3f8c38df4566ee08"),
    ("pcf transversality --d 8 --k 1 --n 2 --m 2 --emax 6 --budget 1000000", 0,
     "038163b2859b31ede37b65c8fa7f4d67f394630a5e68ea91b411cfbb4a868e53"),
    ("pcf transversality --d 5 --k 1 --n 2 --m 1 --emax 3 --budget 1000000", 0,
     "c3f99f086a6b87d1feb9fe4f904b40d3158adcd9ae8b1c7ac3a3fbf0e7aa8731"),
    ("pcf transversality --d 9 --k 2 --n 2 --m 2 --emax 4 --budget 1000000", 0,
     "2c9ca0dad71a5e70826dba8789663bb22411029de4ca80a6f0fef3d5d0c44da3"),
    # additive shapes with n = m (N = d - r a power of p), pinned while their
    # points still came from Res_c(F, G): the closed-form route must keep
    # every byte.  (9,3) has r = 2 and (8,3) r = 3
    ("pcf transversality --d 9 --k 2 --n 3 --m 3 --emax 5", 0,
     "11f20c4fc090ee3b600413879e402d89cd1d4fd901c757393fc8fcd12f94b8fe"),
    ("pcf transversality --d 5 --k 1 --n 2 --m 2 --emax 4", 0,
     "3e12d8454f7252dd9bb65bdc7e884a39096cb079a39f8b5d4e9f9e2910901c38"),
    ("pcf transversality --d 13 --k 3 --n 2 --m 2 --emax 2", 0,
     "8791c846ef1494f82b2e854a55242f0d16b577a1706105d885c661a2f77b289a"),
    ("pcf transversality --d 8 --k 1 --n 3 --m 3 --emax 3", 0,
     "430bc166d19f95d6def3826d6c7fb2992ac1e8cbf782d75239ab8047a2457864"),
    ("pcf transversality --d 9 --k 3 --n 2 --m 2 --emax 2", 0,
     "c57c572aecfe3c8e75a4e1f29e37e2c32b7a682dcacdde377df2382978a6917d"),
    ("pcf transversality --d 8 --k 3 --n 2 --m 2 --emax 2", 0,
     "43e65256a85e6c6897be7246de3caa786b20feecbb4ad88caf0cb6d0f62a595c"),
    # the ten integrality slots of the pcf benchmark workload, the locus of
    # (4,1,5,3) with its 3,456 + 165 terms among them
    ("pcf integrality --d 6 --k 2 --n 2 --m 2", 0,
     "4a7d7adb2312a3908ea6171902aafb745cbc58b2ba0f3b94c61e9cf7ebd358d8"),
    ("pcf integrality --d 5 --k 2 --n 1 --m 3", 0,
     "1b701b0714b5e2503f6e20eec65d62066f2d874df40d2c740bf2c4d390fdf224"),
    ("pcf integrality --d 3 --k 1 --n 2 --m 3", 0,
     "2d287bf790a8a8ddac6fc1ba21db480f683f6d45d7deadba79ddd4289f7ef761"),
    ("pcf integrality --d 4 --k 1 --n 3 --m 1", 0,
     "8a48e8cf54eac2c004bc1e17f12c5d5061c95e31cc4c662febaa44f5d43dd560"),
    ("pcf locus --d 4 --k 1 --n 5 --m 3", 0,
     "ff6fd4585a9a89db6c091fea426c664c9cb6de4228c2a97239ba6534323ee4a1"),
    ("pcf integrality --d 3 --k 1 --n 1 --m 4", 0,
     "705b1319b4995037f2374683e93ea93d38df3fd76a8507b66e1cad2e052de2ed"),
    ("pcf integrality --d 7 --k 3 --n 2 --m 2", 0,
     "ce895cefb761fcb0bed1cd338dcf84fab1fa240290a5b1f749cc55624ff0f19e"),
    ("pcf integrality --d 3 --k 1 --n 3 --m 2", 0,
     "99617c1fd1100bb9a5cfa6f2d3714fcd816666d2ee1d2b9c445c39e1c0b0d911"),
    ("pcf integrality --d 8 --k 2 --n 2 --m 2", 1,
     "a69719b5e106cb04c21e8e772c156e9c0b1ebaf07b50ea8788582c15f707e60d"),
    ("pcf integrality --d 4 --k 1 --n 2 --m 3", 0,
     "80f5123de7708272f5dff1be839f5eed7b378bdda7109cf9d2954f18736f85c2"),
]


@pytest.mark.parametrize("command, exit_code, digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_report_bytes(capsys, command, exit_code, digest):
    code = main(command.split())
    out = capsys.readouterr().out
    masked = re.sub(r'"elapsed_us": "\d+"', '"elapsed_us": ""', out)
    assert code == exit_code
    assert hashlib.sha256(masked.encode()).hexdigest() == digest
