#!/usr/bin/env python3
"""Build and run xroute's benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of an xroute checkout. It builds the broker daemon and
the driver (perfbench/xbench.ml) with dune, then runs the driver, which
spawns two xroute_brokerd processes, drives them, and prints the run
record; its last line is one JSON object. Logs and span files go to
.perfbench/ in the checkout.
"""

import os
import subprocess
import sys

ROOT = os.getcwd()
BUILD = "_build/default"
BROKERD = BUILD + "/bin/xroute_brokerd.exe"
DRIVER = BUILD + "/perfbench/xbench.exe"
OUT = ".perfbench"


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    for need in ("dune-project", "bin/xroute_brokerd.ml", "lib", "perfbench/xbench.ml"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("not an xroute checkout (missing %s); run from its root" % need)
    # Build only what the benchmark runs; -j 2 keeps memory small, and
    # without the shared cache the build writes only inside the checkout.
    cmd = ["dune", "build", "--root", ".", "--cache=disabled", "-j", "2", "./" + BROKERD, "./" + DRIVER]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if r.returncode != 0:
        sys.stderr.write(r.stdout.decode(errors="replace")[-4000:])
        fail("build failed")


def main(argv):
    build()
    os.makedirs(OUT, exist_ok=True)
    if argv == ["--self-test"]:
        cmd = ["./" + DRIVER, "selftest", "./" + BROKERD]
    else:
        cmd = ["./" + DRIVER] + argv + ["--brokerd", "./" + BROKERD, "--out", OUT]
    # The driver reaps its own brokerd and simulator processes; a
    # timeout here kills its whole process group.
    p = subprocess.Popen(cmd, start_new_session=True)
    try:
        return p.wait(timeout=175)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, 9)
        p.wait()
        fail("the driver overran its time")
    except KeyboardInterrupt:
        os.killpg(p.pid, 9)
        p.wait()
        raise


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
