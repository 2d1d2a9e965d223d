"""Record the reference outputs the benchmark checks against.

Usage (from the root of a checkout)::

    python3 perfbench/record_references.py

Writes ``perfbench/references.json``: the stdout of the default
``repro-tool campaign --executor serial``, and the SHA-256 of every
``codec_roundtrip`` container for every field seed it can pick. Run it
only when a change is meant to alter these outputs, and say so.
"""

import hashlib
import json
import subprocess
import sys

from common import REFERENCES, SRC, child_env

sys.path.insert(0, str(SRC))

from workloads import (  # noqa: E402
    CAMPAIGN_ARGV,
    CODEC_BOUNDS,
    CODEC_SEEDS,
    CODECS,
    codec_fields,
    container_key,
)


def main() -> int:
    from repro.compressors import get_compressor

    proc = subprocess.run([sys.executable, "-m", "repro.cli", *CAMPAIGN_ARGV],
                          env=child_env(), capture_output=True, text=True,
                          check=True)
    refs = {"campaign_cli": proc.stdout, "codec_roundtrip": {}}
    for seed in range(CODEC_SEEDS):
        digests = refs["codec_roundtrip"][str(seed)] = {}
        for field, arr in codec_fields(seed, smoke=False).items():
            for name in CODECS:
                codec = get_compressor(name)
                for eb in CODEC_BOUNDS:
                    blob = codec.compress(arr, eb).to_bytes()
                    digests[container_key(field, name, eb)] = \
                        hashlib.sha256(blob).hexdigest()
    with open(REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
