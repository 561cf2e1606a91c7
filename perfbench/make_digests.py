"""Regenerate cli_digests.json: the SHA-256 of the stdout of every
closed-form command for every seed variant, as the checked-out sources
print it.

    python3 perfbench/make_digests.py

CLI outputs must stay byte-identical across changes, so run this only at a
commit whose outputs are the reference (or after a deliberate format
change), never to make a failing check pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import (CLOSED_FORM_COMMANDS, DIGESTS_FILE, N_DIGEST_VARIANTS,
                       closed_form_configs)

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from blodyne import cli

    tmp = ROOT / ".perfbench_runs" / "digests"
    tmp.mkdir(parents=True, exist_ok=True)
    digests = {}
    try:
        for variant in range(N_DIGEST_VARIANTS):
            digests[str(variant)] = {}
            for tone, cfg in closed_form_configs(variant).items():
                path = tmp / f"{tone}.json"
                path.write_text(json.dumps(cfg, indent=1) + "\n", encoding="utf-8")
                for cfg_tone, command in CLOSED_FORM_COMMANDS:
                    if cfg_tone != tone:
                        continue
                    buf = io.StringIO()
                    with contextlib.redirect_stdout(buf):
                        code = cli.main([command, "--config", str(path)])
                    if code != 0:
                        raise SystemExit(f"variant {variant} {tone}:{command} exited {code}")
                    digests[str(variant)][f"{tone}:{command}"] = \
                        hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True).stdout.strip() if (ROOT / ".git").exists() else ""
    DIGESTS_FILE.write_text(json.dumps(
        {"taken_at": commit or "unknown", "format_version": cli.FORMAT_VERSION,
         "digests": digests}, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {N_DIGEST_VARIANTS} variants to {DIGESTS_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
