"""The BLAS thread policy: one thread for a whole command and for a
library quantize() call, set once by the outermost of overlapping
scopes, off when asked, and never a change in any result; and the
eigenvalue routine the report names."""

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import psdo.quantize
from oracles import load_bench_workloads
from psdo import blas
from psdo.cli import canonical_report_bytes, main
from psdo.geometry import Circle
from psdo.symexpr import parse
from psdo.verify import run_suites

SRC = Path(__file__).resolve().parent.parent / "src"
QUANTIZE_512 = {"geometry": {"kind": "circle", "n_x": 512}, "symbol": "2 + 0.3 * sin(x) * chi(xi)"}
FAKE_EIGEN = {"eigen": "eigvalsh", "eigen_reason": "no LAPACKE_zheevd_2stage in libfake.so"}
ON = {"threads": 1, **FAKE_EIGEN}


class FakeOpenBLAS:
    """Stands in for the set and get symbols of the library."""

    def __init__(self, count):
        self.count, self.calls = count, []

    def set(self, n):
        self.calls.append(n)
        self.count = n

    def get(self):
        return self.count


def clear_thread_vars(monkeypatch):
    for var in blas._THREAD_VARS:
        monkeypatch.delenv(var, raising=False)


@pytest.fixture
def fake(monkeypatch):
    clear_thread_vars(monkeypatch)
    lib = FakeOpenBLAS(4)
    monkeypatch.setattr(blas, "_openblas", lambda: blas._OpenBLAS("libfake.so", lib.set, lib.get, None))
    return lib


@pytest.fixture
def policy_on(monkeypatch):
    """The real library with the policy in force."""
    if blas._openblas() is None or blas._openblas().set_threads is None:
        pytest.skip("numpy carries no OpenBLAS library")
    clear_thread_vars(monkeypatch)


def run_command(tmp_path, command, cfg, *flags):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return main([command, "--config", str(path), *flags])


# -- narrow ---------------------------------------------------------------------


def test_narrow_sets_one_thread_and_restores(fake):
    with blas.narrow() as policy:
        assert fake.count == 1
        assert policy == ON
    assert fake.count == 4
    assert fake.calls == [1, 4]


def test_narrow_restores_after_raise(fake):
    with pytest.raises(RuntimeError):
        with blas.narrow():
            raise RuntimeError("body failed")
    assert fake.count == 4
    assert fake.calls == [1, 4]


def test_nested_narrow_is_a_no_op(fake):
    with blas.narrow() as outer:
        with blas.narrow() as inner:
            assert fake.count == 1
            assert inner == outer
        assert fake.count == 1
    assert fake.count == 4
    assert fake.calls == [1, 4]


def test_overlapping_scopes_on_two_threads_set_the_count_once(fake):
    """Each thread's scope stays open until both have entered, so the
    second scope opens inside the first; whichever leaves last restores
    the count the first one read."""
    both_open = threading.Barrier(2, timeout=10)
    seen, errors = [], []

    def scope():
        try:
            with blas.narrow():
                both_open.wait()
                seen.append(fake.count)
        except Exception as e:  # reported below, not lost in the thread
            errors.append(e)

    threads = [threading.Thread(target=scope) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=20)
        assert not t.is_alive()
    assert errors == []
    assert seen == [1, 1]
    assert fake.calls == [1, 4]
    assert fake.count == 4


def test_scopes_on_many_threads_keep_the_count(monkeypatch):
    """Eight threads open nested scopes 500 times each, switching every
    microsecond and at each read of the count: inside any scope the
    count is 1, every set to 1 is followed by the restore, and the prior
    count comes back at the end."""
    clear_thread_vars(monkeypatch)
    fake = FakeOpenBLAS(4)

    def get():
        time.sleep(0)  # lets another thread run between the read and the set
        return fake.get()

    monkeypatch.setattr(blas, "_openblas", lambda: blas._OpenBLAS("libfake.so", fake.set, get, None))
    seen, errors = set(), []

    def work():
        try:
            for _ in range(500):
                with blas.narrow():
                    with blas.narrow():
                        seen.add(fake.count)
                    seen.add(fake.count)
        except Exception as e:  # reported below, not lost in the thread
            errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert seen == {1}
    assert fake.calls == [1, 4] * (len(fake.calls) // 2)
    assert fake.count == 4


def test_real_library_follows_the_policy(policy_on):
    get = blas._openblas().get_threads
    before = get()
    with blas.narrow():
        assert get() == 1
    assert get() == before


@pytest.fixture
def real_calls(policy_on, monkeypatch):
    """The real library, with each thread count it is set to recorded."""
    real, calls = blas._openblas(), []

    def set_threads(n):
        calls.append(n)
        real.set_threads(n)

    monkeypatch.setattr(blas, "_openblas", lambda: real._replace(set_threads=set_threads))
    return real.get_threads, calls


def test_library_quantize_runs_on_one_thread(real_calls, monkeypatch):
    get, calls = real_calls
    seen = []
    op_circle = psdo.quantize.op_circle

    def recorded(*args):
        seen.append(get())
        return op_circle(*args)

    monkeypatch.setattr(psdo.quantize, "op_circle", recorded)
    expr = parse("2 + 0.3 * sin(x) * chi(xi)")
    before = get()
    psdo.quantize.quantize(Circle(64), expr)
    assert seen == [1]
    assert calls == [1, before]
    assert get() == before
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", str(before))
    psdo.quantize.quantize(Circle(64), expr)
    assert seen == [1, before]
    assert calls == [1, before]


def test_quantize_sets_the_count_once(tmp_path, capsys, fake):
    """A 512-point circle reaches the kernel's matmul and the Gram norm
    at dimension 512; neither touches the thread count."""
    assert run_command(tmp_path, "quantize", QUANTIZE_512, "--out", str(tmp_path / "q")) == 0
    assert json.loads(capsys.readouterr().out)["volatile"]["blas"] == ON
    assert fake.calls == [1, 4]


def test_import_resolves_no_library():
    code = "import psdo.cli, psdo.blas; print(psdo.blas._openblas.cache_info().currsize)"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0"


# -- the eigenvalue routine ---------------------------------------------------


def _numpy_blas_name():
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.26 prints its config only
        return ""
    return str(config.get("Build Dependencies", {}).get("blas", {}).get("name", "")).lower()


def test_openblas_numpy_resolves_the_two_stage_solver():
    """A silent eigvalsh fallback would keep every test green and lose
    the in-place eigenvalue step, so an OpenBLAS numpy must resolve it."""
    if "openblas" not in _numpy_blas_name():
        pytest.skip("numpy is not built on OpenBLAS")
    lib = blas._openblas()
    assert lib is not None and lib.zheevd is not None
    assert blas._eigen() == {"eigen": "zheevd_2stage"}


# -- the report ----------------------------------------------------------------


def test_report_names_the_policy(capsys, fake):
    assert main(["verify", "--only", "toeplitz"]) == 0
    assert json.loads(capsys.readouterr().out)["volatile"]["blas"] == ON


@pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"])
def test_policy_off_when_threads_are_set(tmp_path, capsys, monkeypatch, var):
    clear_thread_vars(monkeypatch)
    monkeypatch.setenv(var, "2")

    def never(*args):
        raise AssertionError("the policy called a thread-count symbol")

    monkeypatch.setattr(blas, "_openblas", lambda: blas._OpenBLAS("libfake.so", never, never, None))
    cfg, _, _ = load_bench_workloads().index_configs(0)[0]
    assert run_command(tmp_path, "index", cfg) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["volatile"]["blas"] == {"threads": None, "reason": f"{var} set", **FAKE_EIGEN}


def test_policy_off_without_library(capsys, monkeypatch):
    clear_thread_vars(monkeypatch)
    monkeypatch.setattr(blas, "_openblas", lambda: None)
    assert main(["verify", "--only", "toeplitz"]) == 0
    report = json.loads(capsys.readouterr().out)
    none = "no OpenBLAS library found"
    assert report["volatile"]["blas"] == {"threads": None, "reason": none, "eigen": "eigvalsh", "eigen_reason": none}


# -- the thread count never changes a result ------------------------------------


@pytest.mark.parametrize("only", ["skruch", "toeplitz", "sections", "cone-index"])
def test_suite_payload_same_on_one_thread(policy_on, only):
    outside = run_suites(seed=0, only=only).payload()
    with blas.narrow():
        inside = run_suites(seed=0, only=only).payload()
    assert json.dumps(inside, sort_keys=True) == json.dumps(outside, sort_keys=True)


@pytest.mark.parametrize("i", range(4))
def test_index_bytes_same_with_policy_on_and_off(tmp_path, capsys, monkeypatch, policy_on, i):
    cfg, _, _ = load_bench_workloads().index_configs(0)[i]

    def index_run():
        code = run_command(tmp_path, "index", cfg)
        report = json.loads(capsys.readouterr().out)
        return code, canonical_report_bytes(report), report["volatile"]["blas"]["threads"]

    on = index_run()
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    off = index_run()
    assert on[2] == 1 and off[2] is None
    assert on[:2] == off[:2]


def test_quantize_bytes_same_with_policy_on_and_off(tmp_path, capsys, monkeypatch, policy_on):
    """Where the policy is off, the kernel's matmul and the Gram gemm at
    dimension 512 run on two threads; the container and the printed
    norm keep their bits."""

    def quantize_run(name):
        out = tmp_path / name
        code = run_command(tmp_path, "quantize", QUANTIZE_512, "--out", str(out))
        report = json.loads(capsys.readouterr().out)
        threads = report["volatile"]["blas"]["threads"]
        return code, canonical_report_bytes(report).replace(str(out).encode(), b"OUT"), threads

    on = quantize_run("on")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    off = quantize_run("off")
    assert on[2] == 1 and off[2] is None
    assert on[:2] == off[:2]  # the report holds the container's sha256 and the norm
