"""The benchmark under perfbench/ wraps fischerlab's layer entry points at
the places their callers look them up; a refactor that removes one of
those places must fail here, not only in the benchmark's own tests."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_every_benchmark_tracer_site_exists():
    # a child process, since install() rebinds module attributes for good
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]))
    code = "import tracing; print(tracing.install(tracing.Recorder())[1])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
