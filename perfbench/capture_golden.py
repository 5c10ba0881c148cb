"""Write the golden outputs of the model-side commands into ``golden/``.

    python3 perfbench/capture_golden.py

The golden files are the reference for byte-identical CLI output: capture
them once, at a commit whose output is known to be right, and commit them.
Re-capturing on a later commit would make the check pass whatever that
commit prints. Each ``analyze --builtin`` output must also be what
``analyze --arch`` prints for the network's ``emit_network`` file; this
script refuses to write anything if it is not.
"""
import contextlib
import io
import sys
import tempfile
from pathlib import Path

from common import BUILTINS, HERE, SRC, require_sources

require_sources()
sys.path.insert(0, str(SRC))

import cnnergy  # noqa: E402
import cnnergy.cli  # noqa: E402


def run(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cnnergy.cli.main(argv)
    if code != 0:
        sys.exit(f"capture_golden: {argv} exited {code}")
    return out.getvalue()


def main() -> None:
    golden = {}
    with tempfile.TemporaryDirectory() as tmp:
        for net in BUILTINS:
            golden[f"analyze_{net}"] = run(["analyze", "--builtin", net])
            golden[f"analyze_{net}_batch64"] = run(["analyze", "--builtin", net, "--batch", "64"])
            arch_file = Path(tmp) / f"{net}.arch"
            arch_file.write_text(cnnergy.emit_network(cnnergy.builtin_network(net)), encoding="utf-8")
            if run(["analyze", "--arch", str(arch_file)]) != golden[f"analyze_{net}"]:
                sys.exit(f"capture_golden: analyze --arch differs from --builtin for {net}")
        golden["analyze_caffenet_table"] = run(["analyze", "--builtin", "caffenet",
                                                "--format", "table"])
        models = Path(tmp) / "models.json"
        golden["calibrate"] = run(["calibrate", "--bundled", "--model-out", str(models)])
        if run(["calibrate", "--bundled"]) != golden["calibrate"]:
            sys.exit("capture_golden: calibrate output depends on --model-out")
        golden["calibrate_models"] = models.read_text(encoding="utf-8")
        golden["predict"] = run(["predict", "--models", str(models), "--device", "pascal",
                                 "--network", "resnet_gait", "--step", "forward", "--gpus", "1",
                                 "--batch", "96"])
    for device in ("pascal", "maxwell"):
        for metric in ("time", "energy", "edp"):
            golden[f"rank_{device}_{metric}"] = run(["rank", "--bundled", "--device", device,
                                                     "--metric", metric])
    out_dir = HERE / "golden"
    out_dir.mkdir(exist_ok=True)
    for name, text in golden.items():
        (out_dir / f"{name}.txt").write_text(text, encoding="utf-8")
    print(f"wrote {len(golden)} golden files to {out_dir}")


if __name__ == "__main__":
    main()
