"""Run the gpattr commands of README.md in order, one output directory each.

Every ```bash block line that starts with `gpattr` (with its `\\`
continuation lines) is one command. Command k runs as `python -m gpattr`
on this checkout's src/ with `--out-dir OUT_DIR/k-SUBCOMMAND/`, and
`run/model.json` becomes the model.json of the latest fit. Its stdout,
stderr and exit status go to stdout.txt, stderr.txt and status.txt in that
directory, next to the command's result files and manifest.json.

Two checkouts run into the same OUT_DIR (move the first run aside before
the second) give outputs that `diff -r` can compare byte for byte:

    python scripts/readme_commands.py /tmp/readme && mv /tmp/readme /tmp/readme-a
    (other checkout) python scripts/readme_commands.py /tmp/readme
    diff -r /tmp/readme-a /tmp/readme

Usage: python scripts/readme_commands.py OUT_DIR
"""

import argparse
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def readme_commands(text: str) -> list[list[str]]:
    """argv (without the leading `gpattr`) of every README command, in order."""
    commands = []
    for block in re.findall(r"```bash\n(.*?)```", text, flags=re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["gpattr"]:
                commands.append(argv[1:])
    return commands


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", help="directory for one subdirectory per command")
    out_root = Path(parser.parse_args(argv).out_dir)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    model = None
    failed = 0
    commands = readme_commands((ROOT / "README.md").read_text(encoding="utf-8"))
    for k, cmd in enumerate(commands, start=1):
        out = out_root / f"{k:02d}-{cmd[0]}"
        out.mkdir(parents=True, exist_ok=True)
        cmd = [str(model) if a == "run/model.json" else str(out) if a == "run/" else a for a in cmd]
        if cmd[0] == "fit":
            model = out / "model.json"
        proc = subprocess.run([sys.executable, "-m", "gpattr", *cmd], capture_output=True, text=True,
                              env=env, cwd=ROOT)
        (out / "stdout.txt").write_text(proc.stdout, encoding="utf-8")
        (out / "stderr.txt").write_text(proc.stderr, encoding="utf-8")
        (out / "status.txt").write_text(f"{proc.returncode}\n", encoding="utf-8")
        failed += proc.returncode != 0
        print(f"readme_commands: {out.name} exit {proc.returncode}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
