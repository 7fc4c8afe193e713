"""Time the program's own set-up in a fresh interpreter.

    python3 setup_probe.py SRC_DIR TEXTS_JSON

prints the seconds taken by the first ``import swapsensus`` plus
``parse_instance`` of every instance text in TEXTS_JSON (a JSON list).
"""

import json
import sys
import time

src, texts_path = sys.argv[1], sys.argv[2]
with open(texts_path) as f:
    texts = json.load(f)
sys.path.insert(0, src)
t0 = time.perf_counter()
import swapsensus  # noqa: E402

for text in texts:
    swapsensus.parse_instance(text)
print(time.perf_counter() - t0)
