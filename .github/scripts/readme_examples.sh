#!/usr/bin/env bash
# Run the README's model3, extract (as written and over-asked), omnes (as
# written and at m = omega = hbar = 1e-200) and bifriedrich examples, and a
# weakly separated model2, through the `decopoles` console script and check
# what they write.
#
#     readme_examples.sh README.md WORKDIR
#
# Each ```json block of the README is written to WORKDIR as <scenario>.json;
# the runs write their output directories there too.  Any failing command,
# check included, fails the script.
set -euo pipefail

readme=$(realpath "$1")
cd "$2"
python - "$readme" <<'PY'
import json, re, sys
readme = open(sys.argv[1], encoding="utf-8").read()
for block in re.findall(r"```json\n(.*?)```", readme, re.S):
    with open(json.loads(block)["scenario"] + ".json", "w", encoding="utf-8") as fh:
        fh.write(block)
PY
decopoles simulate --config model3.json --out out
decopoles extract --config extract.json --out fit
# over-asked: the README's signal has 3 modes; the retry at the effective rank
# reuses the first fit's SVD and must write the catalogue a 3-mode run writes
python - <<'PY'
import json
doc = json.load(open("extract.json", encoding="utf-8"))
doc["params"]["model_order"] = 5
json.dump(doc, open("extract_overasked.json", "w", encoding="utf-8"))
PY
decopoles extract --config extract_overasked.json --out fit_overasked 2> overasked.err
grep -q "requested 5 modes but the signal supports only 3; refitting at the effective rank" overasked.err
cmp fit/catalogue.json fit_overasked/catalogue.json
decopoles omnes --config omnes.json --out omnes_out
# the same run with m = omega = hbar = 1e-200: m omega underflows to 0, yet
# Delta = L0 sqrt(m omega / 2) / hbar is L0 sqrt(1/2), so every sweep length runs
python - <<'PY'
import json
doc = json.load(open("omnes.json", encoding="utf-8"))
doc["params"].update(m=1e-200, omega=1e-200, hbar=1e-200)
json.dump(doc, open("omnes_tiny_scales.json", "w", encoding="utf-8"))
PY
decopoles omnes --config omnes_tiny_scales.json --out omnes_tiny_scales_out
decopoles simulate --config bifriedrich.json --out bi
grep -qx "1,quantum,quantum" bi/verdicts.csv
grep -qx "1.5,classical,quantum" bi/verdicts.csv
# gamma1 / gamma0 = 5: model2 runs, and its weak separation is one warning: line of the CLI's
python - <<'PY'
import json
doc = {"scenario": "model2", "grid": {"t_max": 10.0, "n_points": 41}, "params": {"gamma0": 1, "gamma1": 5}}
json.dump(doc, open("model2_weak.json", "w", encoding="utf-8"))
PY
decopoles simulate --config model2_weak.json --out model2_weak 2> model2_weak.err
test -f model2_weak/timescales.csv
printf 'warning: gamma0 = 1.0 is not << gamma1 = 5.0; timescale separation is weak\n' | cmp - model2_weak.err
test -f omnes_out/macroscopicity.txt
test -f omnes_out/nd_decay.csv
# the separation-free invariant through the console script: t_D L0^2 is one number
# over the README's three sweep lengths, at the README's scales and at 1e-200
python - <<'PY'
import csv
for out in ("omnes_out", "omnes_tiny_scales_out"):
    rows = list(csv.DictReader(open(f"{out}/td_vs_L0.csv", encoding="utf-8")))
    assert len(rows) == 3, (out, rows)
    products = [float(r["t_D"]) * float(r["L0"]) ** 2 for r in rows]
    assert max(products) - min(products) <= 1e-12 * products[0], (out, products)
PY
python -c "import decopoles; print(decopoles.catalogue_from_json(open('fit/catalogue.json').read()))"
